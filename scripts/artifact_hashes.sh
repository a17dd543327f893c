#!/usr/bin/env bash
# Print the sha256 of every pipeline artifact for the source tree of one
# checkout. One `pipeline` run of a small config (120 listings, all eight
# settings) trains every traveler kind once; training logs carry wall times
# and are left out. The script writes the demand, centroid and cold-listing
# CSVs itself, so `coldstart` appends three rows inside `pipeline`; these
# inputs and the config are not listed. It compares nothing: run it on two
# checkouts and diff the output.
#
# usage: scripts/artifact_hashes.sh <checkout>
set -euo pipefail
checkout=$(cd "${1:?usage: $0 <checkout>}" && pwd)
export PYTHONPATH="$checkout/src${PYTHONPATH:+:$PYTHONPATH}"
settings='["handcrafted", "random", "average", "dan", "lstm", "lstm_attention", "dan_only", "lstm_attention_only"]'
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
# every listing sends its demand to one of four destinations
{ echo listing_key,destination_id,proportion
  for i in $(seq 0 119); do printf 'L%06d,D%d,1.0\n' "$i" $((i % 4)); done; } > "$dir/demand.csv"
printf '%s\n' destination_id,latitude,longitude D0,48.85,2.35 D1,40.71,-74.0 \
  D2,35.68,139.69 D3,-33.87,151.21 > "$dir/centroids.csv"
printf '%s\n' listing_key,latitude,longitude C1,48.0,2.0 C2,0.0,0.0 C3,-30.0,150.0 > "$dir/cold.csv"
cat > "$dir/config.json" <<EOF
{"seed": 3, "corpus": {"n_listings": 120, "n_clusters": 4, "n_travelers": 900},
 "skipgram": {"dim": 12, "epochs": 2},
 "coldstart": {"demand_file": "demand.csv", "centroids_file": "centroids.csv",
               "cold_listings_file": "cold.csv"},
 "traveler": {"epochs": 3, "hidden_expand": 24, "hidden_contract": 10,
              "embedding_dim": 4, "lstm_hidden": 6},
 "eval": {"epochs": 5, "settings": $settings}}
EOF
(cd "$dir" && python3 -m session2rec --config config.json pipeline > /dev/null)
(cd "$dir" && find . -type f ! -name '*.log' ! -name config.json ! -name '*.csv' | sort | xargs sha256sum)
