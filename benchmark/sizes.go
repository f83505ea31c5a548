package main

import "time"

// sizes holds every workload dimension. fullSizes is the benchmark; toySizes
// exists so the smoke test can run each workload end to end in a few seconds.
// README.md records why the full sizes are what they are.
type sizes struct {
	setupReps int // set-up is repeated this often and its median reported

	// batch-tall: datagen.Tall, Improved, backend auto.
	tallTxns   int
	tallMinSup float64
	tallMinRI  float64
	// batch-wide: datagen.Short.
	wideTxns   int
	wideMinSup float64
	wideMinRI  float64
	// The hash-tree oracle is 28× slower than bitmap counting on batch-wide,
	// so there it cross-checks the first widePrefix transactions only.
	widePrefix int

	tracedCycles int // traced cycles per batch workload
	fixedQueries int // queries per byte-identity check

	// serve-read: rule set mined once from the first serveTxns transactions
	// of datagen.Short.
	serveTxns    int
	serveMinSup  float64
	serveMinRI   float64
	serveClients int
	serveWarmup  time.Duration
	opStream     int // ops generated per run; clients cycle through them
	depthOps     int // span-recorded ops per in-process depth

	// stream-mixed: daemon seeded with the first streamTxns transactions of
	// datagen.Short, then fed rounds of roundTxns baskets cut from the
	// following streamPool transactions (the rounds wrap around after that).
	streamTxns   int
	streamPool   int
	streamMinSup float64
	streamMinRI  float64
	streamMaxK   int
	roundTxns    int
	readRPS      int
	pollEvery    time.Duration
	replayRounds int // in-process write-path rounds in the traced run
}

var fullSizes = sizes{
	setupReps: 3,

	tallTxns: 5000, tallMinSup: 0.03, tallMinRI: 0.3,
	wideTxns: 200000, wideMinSup: 0.01, wideMinRI: 0.5, widePrefix: 10000,
	tracedCycles: 3, fixedQueries: 200,

	serveTxns: 5000, serveMinSup: 0.01, serveMinRI: 0.5,
	serveClients: 2, serveWarmup: 500 * time.Millisecond,
	opStream: 8192, depthOps: 4000,

	streamTxns: 5000, streamPool: 20000, streamMinSup: 0.0125, streamMinRI: 0.5, streamMaxK: 3,
	roundTxns: 250, readRPS: 200, pollEvery: 5 * time.Millisecond, replayRounds: 20,
}

var toySizes = sizes{
	setupReps: 1,

	tallTxns: 1500, tallMinSup: 0.06, tallMinRI: 0.3,
	wideTxns: 4000, wideMinSup: 0.02, wideMinRI: 0.5, widePrefix: 2000,
	tracedCycles: 2, fixedQueries: 40,

	serveTxns: 5000, serveMinSup: 0.01, serveMinRI: 0.5, // smaller seeds mine no rules
	serveClients: 2, serveWarmup: 50 * time.Millisecond,
	opStream: 512, depthOps: 200,

	streamTxns: 2000, streamPool: 2000, streamMinSup: 0.03, streamMinRI: 0.5, streamMaxK: 3,
	roundTxns: 100, readRPS: 100, pollEvery: 5 * time.Millisecond, replayRounds: 3,
}
