#!/usr/bin/env bash
# Print the sha256 of every pipeline artifact for the source tree of one
# checkout. One `pipeline` run of a small config (120 listings, all eight
# settings) trains every traveler kind once; training logs carry wall times
# and are left out. It compares nothing: run it on two checkouts and diff
# the output.
#
# usage: scripts/artifact_hashes.sh <checkout>
set -euo pipefail
checkout=$(cd "${1:?usage: $0 <checkout>}" && pwd)
export PYTHONPATH="$checkout/src${PYTHONPATH:+:$PYTHONPATH}"
settings='["handcrafted", "random", "average", "dan", "lstm", "lstm_attention", "dan_only", "lstm_attention_only"]'
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cat > "$dir/config.json" <<EOF
{"seed": 3, "corpus": {"n_listings": 120, "n_clusters": 4, "n_travelers": 900},
 "skipgram": {"dim": 12, "epochs": 2},
 "traveler": {"epochs": 3, "hidden_expand": 24, "hidden_contract": 10,
              "embedding_dim": 4, "lstm_hidden": 6},
 "eval": {"epochs": 5, "settings": $settings}}
EOF
(cd "$dir" && python3 -m session2rec --config config.json pipeline > /dev/null)
(cd "$dir" && find . -type f ! -name '*.log' ! -name config.json | sort | xargs sha256sum)
