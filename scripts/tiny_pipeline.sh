#!/bin/sh
# Run the tiny pipeline of one checkout: search, derive (min and max mode),
# eval of the min-mode genotype, and a rank report of the last checkpoint.
#
# Usage: scripts/tiny_pipeline.sh SRC OUT
#   SRC  a checkout of this repository; its src/ is what runs
#   OUT  a directory that does not exist yet; it receives tiny.cfg, the
#        search run (search/, with both genotypes), the eval run (eval/)
#        and ranks.txt
#
# Config: 3 cells, 5 nodes, 4 channels, 10x10 synthetic images, 4 classes
# x 12 samples, 4 test samples per class, augmentation, batch 8, 2 epochs,
# run.seed 7. Every path the runs see is relative to OUT, so two checkouts
# that compute the same bits leave OUT trees that match file for file but
# the wall times in log.txt:
#   diff -r -x log.txt OUT_A OUT_B
set -eu
[ $# -eq 2 ] || { echo "usage: $0 SRC OUT" >&2; exit 2; }
src=$(cd "$1" && pwd)
mkdir "$2"
cd "$2"
export PYTHONPATH="$src/src"
export MSRNAS_THREADS="${MSRNAS_THREADS:-1}"
cat > tiny.cfg <<'CFG'
data.kind = synth
data.classes = 4
data.samples_per_class = 12
data.test_samples_per_class = 4
data.height = 10
data.width = 10
data.augment = true
net.cells = 3
net.nodes = 5
net.channels = 4
train.epochs = 2
train.batch_size = 8
run.seed = 7
CFG
msrnas() { python3 -m msrnas "$@"; }
msrnas search --config tiny.cfg --out search
msrnas derive --run search --mode min
msrnas derive --run search --mode max
msrnas eval --genotype search/genotype_min.json --config tiny.cfg --out eval
msrnas ranks --checkpoint search/checkpoints/epoch_0002.msrn --out ranks.txt
