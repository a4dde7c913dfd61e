set -x
cd "$(dirname "$0")/.."
export PYSPARK_SUBMIT_ARGS="--master local[*] --driver-memory 12g --conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false --conf spark.ui.showConsoleProgress=false pyspark-shell"
python jobs/table1_stats.py --sb-scale 1.0 --tus-sf 1.0 --nyc-sf 0.3 > results/table1.txt 2> results/table1.err
python jobs/sb_top55.py --scale 1.0 > results/sb_top55.txt 2> results/sb_top55.err
python jobs/tus_topk.py --sf 1.0 --samples 3000 > results/tus_topk.txt 2> results/tus_topk.err
python jobs/table2_cardinality.py --sf 1.0 --runs 4 --samples 1500 > results/table2.txt 2> results/table2.err
python jobs/table3_meanings.py --sf 1.0 --runs 4 --samples 1500 > results/table3.txt 2> results/table3.err
python jobs/scalability.py --tus-sf 1.0 --nyc-sf 0.3 > results/scalability.txt 2> results/scalability.err
python jobs/d4_impact.py --sf 0.5 > results/d4_impact.txt 2> results/d4_impact.err
echo DONE_ALL
