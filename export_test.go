package verro

// RecordBench exposes recordBench to the external benchmark files
// (package verro_test), which import internal/exp and so cannot live in
// package verro: exp drives the pipeline through this package.
var RecordBench = recordBench
