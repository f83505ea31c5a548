// Command negbench is negmine's benchmark: four named workloads, a small set
// of end-to-end metrics measured untraced, and a per-layer ledger measured in
// a separate traced run by timing calls into each layer from outside.
//
//	negbench --workload NAME --seed N --seconds S --trace 0|1
//	    one run; the last line of standard output is the result object
//	negbench suite [-seeds 1,2,...] [-trace 0] -out FILE
//	    every workload at every seed, collected into FILE
//	negbench compare A.json B.json
//	    per workload × end-to-end metric: both medians, ratio, bound
//	negbench manifest
//	    print BENCHMARK.json from the harness's own tables
//
// See README.md for the workloads, the metrics and how they interact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := dispatch(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "negbench:", err)
		os.Exit(1)
	}
}

func dispatch(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareCmd(args[1:], stdout)
		case "suite":
			return suiteCmd(ctx, args[1:], stderr)
		case "manifest":
			enc := json.NewEncoder(stdout)
			enc.SetEscapeHTML(false)
			enc.SetIndent("", "  ")
			return enc.Encode(theManifest())
		}
	}
	fs := flag.NewFlagSet("negbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "batch-tall, batch-wide, serve-read or stream-mixed")
		seed     = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		secs     = fs.Float64("seconds", float64(theManifest().RunSeconds), "length of the timed window")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	res, err := runWorkload(ctx, *workload, *seed, *secs, *trace == 1, fullSizes, stderr)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: output checks failed", *workload)
	}
	return nil
}

// runWorkload executes one workload once and returns its result object. An
// error means the run itself broke; failed output checks come back as
// Correct == false.
func runWorkload(ctx context.Context, workload string, seed int64, secs float64, trace bool, sz sizes, log io.Writer) (*result, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	// Everything the run writes stays inside the checkout: scratch under
	// .bench_build/ (removed on exit), traces under benchmark/out/.
	tmpBase := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpBase, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(tmpBase, workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	e := &env{
		ctx: ctx, root: root, workDir: workDir,
		outDir: filepath.Join(root, "benchmark", "out"),
		seed:   seed, seconds: secs, trace: trace, size: sz, log: log,
		stamp:  newStamp(root),
		checks: &checks{log: log},
	}
	e.stamp.Workload, e.stamp.Seed, e.stamp.Seconds, e.stamp.Trace = workload, seed, secs, trace

	var out *outcome
	switch workload {
	case wlBatchTall, wlBatchWide:
		out, err = runBatch(e, workload)
	case wlServeRead:
		out, err = runServeRead(e)
	case wlStreamMixed:
		out, err = runStreamMixed(e)
	default:
		return nil, fmt.Errorf("unknown --workload %q (want one of %s, %s, %s, %s)",
			workload, wlBatchTall, wlBatchWide, wlServeRead, wlStreamMixed)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	values, err := out.m.finish(trace)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	fmt.Fprintf(log, "stamp %s\n", e.stamp)
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(log, "%-36s %14.6g %s\n", name, values[name].Value, values[name].Unit)
	}
	fmt.Fprintf(log, "%s: %d attempted, %d failed, %d checks run, %d checks failed\n",
		workload, out.attempted, out.failed, len(e.checks.ran), len(e.checks.failed))
	return &result{
		Correct:   len(e.checks.failed) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   values,
	}, nil
}
