package sched

// The internal tests' generator, options and rendering, for the external
// tests that also need internal/check (which imports sched).
var (
	RandomDAG   = randomDAG
	TestOpts    = testOpts
	Fingerprint = fingerprint
)
