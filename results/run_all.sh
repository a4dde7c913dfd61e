set -ex
cd "$(dirname "$0")/.."
export PYSPARK_SUBMIT_ARGS="--master local[*] --driver-memory 12g --conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false --conf spark.ui.showConsoleProgress=false pyspark-shell"
for name in table1 sb_top55 tus_topk table2 table3 scalability d4_impact; do
    python -m repro.eval.experiments "$name" > "results/$name.txt" 2> "results/$name.err"
done
echo DONE_ALL
