"""HybridGNN benchmark harness: workloads, tracing, statistics, records."""

#: Environment variables that set BLAS / OpenMP thread counts.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
