package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// suiteRun is one harness invocation recorded by `negbench suite`.
type suiteRun struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	WallS    float64 `json:"wall_s"`
	Result   result  `json:"result"`
}

// suiteFile is what `negbench suite` writes and `negbench compare` reads.
type suiteFile struct {
	Stamp stamp      `json:"stamp"`
	Runs  []suiteRun `json:"runs"`
}

// suiteCmd runs every workload once per seed, each in a fresh process (so
// peak_rss_mb and warm-up state never leak between runs), and collects the
// result lines into one file.
func suiteCmd(ctx context.Context, args []string, log io.Writer) error {
	fs := flag.NewFlagSet("negbench suite", flag.ContinueOnError)
	fs.SetOutput(log)
	var (
		seeds = fs.String("seeds", "1,2,3,4,5,6,7,8,9,10", "comma-separated workload seeds")
		only  = fs.String("workloads", "", "comma-separated subset of workloads (default all)")
		secs  = fs.Float64("seconds", float64(theManifest().RunSeconds), "timed window per run")
		trace = fs.Int("trace", 0, "0 or 1, passed to every run")
		out   = fs.String("out", "", "file to write (required)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("suite: -out is required")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	doc := suiteFile{Stamp: newStamp(root)}
	doc.Stamp.Seconds, doc.Stamp.Trace = *secs, *trace == 1
	for _, s := range strings.Split(*seeds, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fmt.Errorf("suite: bad seed %q", s)
		}
		for _, w := range workloads {
			if *only != "" && !strings.Contains(","+*only+",", ","+w.Name+",") {
				continue
			}
			start := time.Now()
			cmd := exec.CommandContext(ctx, self, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(*secs, 'g', -1, 64), "--trace", strconv.Itoa(*trace))
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("suite: %s seed %d: %v\n%s", w.Name, seed, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			run := suiteRun{Workload: w.Name, Seed: seed, Trace: *trace, WallS: time.Since(start).Seconds()}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.Result); err != nil {
				return fmt.Errorf("suite: %s seed %d: bad result line: %v", w.Name, seed, err)
			}
			doc.Runs = append(doc.Runs, run)
			fmt.Fprintf(log, "%-13s seed %-3d %.1fs wall\n", w.Name, seed, run.WallS)
		}
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

// comparison is one workload × end-to-end metric row.
type comparison struct {
	workload, metric string
	a, b             float64 // medians over the file's runs
	spreadA, spreadB float64 // IQR / median, as the driver computes it
	worse            float64 // share of a by which b is worse (negative: better)
	bound            float64
}

func (c comparison) outside() bool { return c.worse > c.bound }

// compareSuites lines up two suite files. A pair is outside its bound when
// B's median is worse than A's by more than the metric's bound.
func compareSuites(a, b suiteFile) ([]comparison, error) {
	values := func(f suiteFile, workload, metric string) []float64 {
		var xs []float64
		for _, r := range f.Runs {
			if v, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	var rows []comparison
	for _, w := range workloads {
		for _, em := range endToEnd {
			xa, xb := values(a, w.Name, em.Name), values(b, w.Name, em.Name)
			if len(xa) == 0 && len(xb) == 0 {
				continue
			}
			if len(xa) == 0 || len(xb) == 0 {
				return nil, fmt.Errorf("compare: %s × %s is in only one of the files", w.Name, em.Name)
			}
			c := comparison{workload: w.Name, metric: em.Name, bound: em.Bound}
			_, c.a, _ = quartiles(xa)
			_, c.b, _ = quartiles(xb)
			c.spreadA, c.spreadB = spread(xa), spread(xb)
			if c.a != 0 {
				c.worse = (c.b - c.a) / c.a
				if em.Better == higher {
					c.worse = -c.worse
				}
			}
			rows = append(rows, c)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("compare: no untraced runs in common")
	}
	return rows, nil
}

func compareCmd(args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: negbench compare A.json B.json")
	}
	var files [2]suiteFile
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	rows, err := compareSuites(files[0], files[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-13s %-17s %14s %14s %9s %8s %8s %6s\n",
		"workload", "metric", "A (median)", "B (median)", "B/A", "spreadA", "spreadB", "bound")
	bad := 0
	for _, c := range rows {
		verdict := ""
		if c.outside() {
			verdict = "  OUTSIDE BOUND"
			bad++
		}
		fmt.Fprintf(out, "%-13s %-17s %14.6g %14.6g %9.4f %7.2f%% %7.2f%% %5.0f%%%s\n",
			c.workload, c.metric, c.a, c.b, c.b/c.a, c.spreadA*100, c.spreadB*100, c.bound*100, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("compare: %d of %d pairs are worse in B than in A (base) by more than their bound", bad, len(rows))
	}
	return nil
}
