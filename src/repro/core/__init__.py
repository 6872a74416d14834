"""The paper's primary contribution: ABACUS / PARABACUS and their substrates.

Modules
-------
encoding        left/right vertex id encoding, StreamContractError
sample_graph    sampled-edge adjacency (sets + dense-vertex bitsets) and the
                bounded edge sample with O(1) random eviction
counting        per-edge butterfly counting kernel (Alg. 1 lines 6-11)
probability     Eq. 1 discovery probability, Thm. 2 variance formulas
random_pairing  Random Pairing sampler (Alg. 2): delta recording, stream contract
abacus          sequential ABACUS (Alg. 1)
parabacus       mini-batch PARABACUS (Sec. V) with serial/Spark RDD executors
exact           exact butterfly counting, DuckDB and pure Python (ground truth)

Nothing here imports pyspark: ``RDDExecutor`` only calls the session it is
given, and ``repro.spark_util`` builds that session.
"""
