// Package repro is a from-scratch Go reproduction of
//
//	Y. Richard Wang and Stuart E. Madnick,
//	"A Polygen Model for Heterogeneous Database Systems:
//	 The Source Tagging Perspective", 1990.
//
// README.md has the tour and quickstart; docs/ARCHITECTURE.md maps the
// layers onto the paper's figures, describes the execution engines and
// their parity contract, and documents the cost-based federated optimizer
// and the rewrites the polygen tag calculus does and does not license.
// EXPERIMENTS.md records paper-vs-measured for every artifact and the B-*
// benchmark families. The implementation lives under internal/, the
// runnable entry points under cmd/ and examples/, and the benchmark
// harness that regenerates every table and figure of the paper in
// bench_test.go next to this file.
//
// Two execution engines evaluate polygen queries, proven cell-for-cell
// identical (data and both tag sets) to each other and to the string-keyed
// reference operators by the property suites in internal/core and
// internal/pqp:
//
//   - the streaming engine (pqp.Execute, the default): plans run as trees
//     of batch cursors, bounding peak memory and overlapping remote LQP
//     retrieval with PQP-side operator work; its join and difference
//     builds are the only operators that run partitioned across the
//     worker pool (core/parallel.go);
//   - the materializing engine (pqp.ExecuteMaterialized / ExecuteAll):
//     serial register-at-a-time evaluation, used whenever every
//     intermediate register is wanted and as the streaming engine's
//     reference;
//   - the string-keyed reference operators (core.Ref*) are the oracle both
//     are checked against: the pre-hash-native semantics baseline, not on
//     any query path.
//
// Plans are rewritten before execution by the cost-based federated
// optimizer (translate.OptimizeWithOptions): selections and projections
// push down into LQPs as fused subplans, retrievals narrow to the columns
// the query demands, and a join chain's bottom join builds over its smaller
// leaf under per-LQP statistics (internal/stats) — every rewrite proven
// identity-preserving, tags included, by the property suite in
// internal/pqp.
package repro
