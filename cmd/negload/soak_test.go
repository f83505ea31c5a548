package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"negmine"
	"negmine/internal/datagen"
	"negmine/internal/loadsim"
)

// The workload soak runs the real negmined binary in streaming mode with a
// periodic re-mine, then drives it with the in-process simulator (the same
// code path the negload binary runs). Contract under sustained mixed load:
// zero hard 5xx, every tracer rule becomes visible, and — in the CI soak —
// freshness p99 stays within 2× the re-mine interval.

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// negminedBinary builds negmined once per test process.
func negminedBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "negload-bin-")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", buildDir, "negmine/cmd/negmined")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(buildDir, "negmined")
}

var addrRe = regexp.MustCompile(`on http://(\S+)`)

// startDaemon launches negmined, waits for its listen banner, and tees all
// output to the test log.
func startDaemon(t *testing.T, bin string, args ...string) (addr string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting negmined: %v", err)
	}
	done := make(chan struct{})
	addrc := make(chan string, 1)
	go func() {
		defer close(done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("[negmined] %s", line)
			if m := addrRe.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
	}()
	t.Cleanup(func() {
		if cmd.ProcessState != nil {
			return
		}
		_ = cmd.Process.Signal(os.Interrupt)
		waited := make(chan struct{})
		go func() { _ = cmd.Wait(); close(waited) }()
		select {
		case <-waited:
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			<-waited
		}
	})
	select {
	case addr = <-addrc:
	case <-time.After(30 * time.Second):
		t.Fatal("negmined did not print its listen address within 30s")
	}
	return addr
}

// workloadFixture generates the taxonomy and seed-transaction files. Seed
// baskets are scrubbed of the items tracer selection will reserve, so the
// planted supports are engineered from a clean slate.
func workloadFixture(t *testing.T, dir string, nTracers int) (taxPath, seedPath string) {
	t.Helper()
	p := datagen.Scaled(datagen.Short(), 50)
	p.NumTransactions = 600
	p.AvgTxLen = 6
	p.Seed = 5
	tax, db, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	dict := loadsim.DictFromTaxonomy(tax)
	tracers, err := loadsim.ChooseTracers(dict, nTracers)
	if err != nil {
		t.Fatalf("fixture taxonomy too small for %d tracers: %v", nTracers, err)
	}
	reserved := map[string]bool{}
	for _, tr := range tracers {
		reserved[tr.Antecedent], reserved[tr.Partner], reserved[tr.Consequent] = true, true, true
	}

	taxPath = filepath.Join(dir, "tax.txt")
	tf, err := os.Create(taxPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tax.Write(tf); err != nil {
		t.Fatal(err)
	}
	tf.Close()

	var sb strings.Builder
	if err := db.Scan(func(tx negmine.Transaction) error {
		var names []string
		for _, x := range tx.Items {
			if n := tax.Name(x); !reserved[n] {
				names = append(names, n)
			}
		}
		if len(names) > 0 {
			sb.WriteString(strings.Join(names, " "))
			sb.WriteByte('\n')
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	seedPath = filepath.Join(dir, "seed.txt")
	if err := os.WriteFile(seedPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return taxPath, seedPath
}

func TestWorkloadSoak(t *testing.T) {
	soak := os.Getenv("NEGMINE_SOAK")
	if testing.Short() && soak == "" {
		t.Skip("multi-process workload soak skipped in -short (set NEGMINE_SOAK to force)")
	}

	duration, remine := 2*time.Second, 500*time.Millisecond
	if soak != "" {
		if d, err := time.ParseDuration(soak); err == nil && d > 0 {
			duration, remine = d, 2*time.Second
		}
	}

	dir := t.TempDir()
	taxPath, seedPath := workloadFixture(t, dir, 2)
	addr := startDaemon(t, negminedBinary(t),
		"-addr", "127.0.0.1:0", "-tax", taxPath, "-data", seedPath,
		"-ingest-dir", filepath.Join(dir, "log"),
		"-minsup", "0.05", "-minri", "0.5", "-maxk", "3",
		"-remine-every", remine.String())

	var out strings.Builder
	args := []string{
		"-target", "http://" + addr, "-tax", taxPath,
		"-seed", "42", "-duration", duration.String(), "-rps", "100",
		"-mix-ingest", "0.1", "-mix-score", "0.45", "-mix-rules", "0.45",
		"-batch", "8", "-drift-phases", "4", "-drift-every", "100",
		"-burst-start", (duration / 4).String(), "-burst-len", (duration / 8).String(), "-burst-amp", "3",
		"-tracers", "2", "-minsup", "0.05", "-poll-every", "100ms",
		"-poll-timeout", (duration + 60*time.Second).String(),
		"-json",
	}
	if err := run(args, &out); err != nil {
		t.Fatalf("negload: %v\n%s", err, out.String())
	}
	t.Logf("negload:\n%s", out.String())

	var res loadsim.Result
	if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
		t.Fatalf("parsing negload -json output: %v\n%s", err, out.String())
	}
	if res.Seed != 42 || res.Ops == 0 || len(res.Endpoints) == 0 {
		t.Fatalf("negload -json result = %+v", res)
	}

	// Zero hard server errors across every endpoint; sheds/206s would be
	// acceptable under overload but 5xx never is.
	for _, ep := range res.Endpoints {
		if ep.Err5xx > 0 {
			t.Errorf("endpoint %s returned %d hard 5xx", ep.Endpoint, ep.Err5xx)
		}
		if ep.NetErr > 0 {
			t.Errorf("endpoint %s had %d transport errors", ep.Endpoint, ep.NetErr)
		}
		if ep.Sent > 0 && ep.P99Ms <= 0 {
			t.Errorf("endpoint %s missing latency quantiles: %+v", ep.Endpoint, ep)
		}
	}

	fr := res.Freshness
	if fr == nil || fr.Visible != fr.Tracers || fr.Missed != 0 {
		t.Fatalf("freshness = %+v, want all %d tracers visible", fr, 2)
	}
	if fr.P99Seconds <= 0 {
		t.Fatalf("freshness p99 = %v, want > 0", fr.P99Seconds)
	}
	// The freshness SLO: ingest → rule-visible p99 within 2× the re-mine
	// interval. Asserted in the CI soak, where the longer window smooths
	// scheduler noise.
	if soak != "" {
		if slo := 2 * remine.Seconds(); fr.P99Seconds > slo {
			t.Errorf("freshness p99 %.2fs exceeds SLO %.2fs (2x remine interval %s)", fr.P99Seconds, slo, remine)
		}
	}
	t.Logf("freshness: %d/%d visible, p50 %.2fs p99 %.2fs (remine %s)",
		fr.Visible, fr.Tracers, fr.P50Seconds, fr.P99Seconds, remine)
}
