package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strings"
)

// manifest is BENCHMARK.json. The tables below are the source of truth; the
// committed file is `negbench manifest` output and a test keeps the two
// equal.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadSpec  `json:"workloads"`
	EndToEnd   []boundedMetric `json:"end_to_end"`
	PerLayer   []layerMetric   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	wlBatchTall   = "batch-tall"
	wlBatchWide   = "batch-wide"
	wlServeRead   = "serve-read"
	wlStreamMixed = "stream-mixed"

	lower  = "lower"
	higher = "higher"
)

// The four workloads, each chosen to stress a different set of layers (see
// README.md for sizes and the reasoning).
var workloads = []workloadSpec{
	{wlBatchTall, "In-process re-mine on the paper's Tall taxonomy (fanout 3): candidate generation is >90% of the cycle, so a candgen change must show here and a counting/scan change must not."},
	{wlBatchWide, "Same re-mine cycle on the Short taxonomy (fanout 9) with 200k transactions: stage-1 scans and bitmap counting dominate, the mirror image of batch-tall."},
	{wlServeRead, "Real negrouter + two negmined shards serving a fixed rule set to 2 closed-loop clients: only serve, cluster and net/http work, no mining at all."},
	{wlStreamMixed, "Real streaming negmined behind a 1-shard negrouter: closed-loop ingest rounds (ack, then wait until visible) beside a 200 rps open-loop reader on the same two cores."},
}

// End-to-end metrics. The driver requires every workload to report every
// one, so each is defined once in terms of "the workload's unit of work"
// (README.md spells out what that is per workload); the endpoint-specific
// figures the issue lists live in perLayer under negrouter.* / negmined.*.
var endToEnd = []boundedMetric{
	{"setup_s", "s", lower, 0.25},
	{"result_p50_ms", "ms", lower, 0.25},
	{"throughput_per_s", "1/s", higher, 0.20},
	{"peak_rss_mb", "MiB", lower, 0.25},
}

// Per-layer metrics, layer = the package (or binary) the name is prefixed
// with. A workload that never calls a layer reports 0 for it: zero busy time
// and zero work is what was measured there.
var perLayer = []layerMetric{
	// Mining ledger (batch-tall, batch-wide).
	{"datagen.generate_s", "s", lower},
	{"gen.stage1_s", "s", lower},
	{"gen.large_itemsets", "count", lower},
	{"taxonomy.restrict_s", "s", lower},
	{"negative.candgen_s", "s", lower},
	{"negative.candidates", "count", lower},
	{"negative.candgen_us_per_candidate", "us", lower},
	{"negative.stages23_s", "s", lower},
	{"negative.rulegen_s", "s", lower},
	{"negative.negatives", "count", higher},
	{"negative.rules", "count", higher},
	{"negative.mine_alloc_mb", "MiB", lower},
	{"count.negpass_s", "s", lower},
	{"count.negpass_candidates_per_s", "1/s", higher},
	{"bitmat.build_s", "s", lower},
	{"bitmat.counts_s", "s", lower},
	{"bitmat.matrix_bytes", "bytes", lower},
	{"bitmat.andpopcount_ns_per_word", "ns", lower},
	{"report.build_s", "s", lower},
	{"rulestore.from_report_s", "s", lower},
	{"serve.snapshot_build_s", "s", lower},
	{"serve.arena_bytes", "bytes", lower},
	{"serve.index_bytes", "bytes", lower},
	{"snapfmt.encode_s", "s", lower},
	{"snapfmt.file_bytes", "bytes", lower},
	{"snapfmt.open_s", "s", lower},
	{"trace.remine_s", "s", lower},
	{"trace.root_s", "s", lower},
	{"trace.overhead_share", "ratio", lower},
	{"trace.unattributed_share", "ratio", lower},
	{"trace.candgen_share", "ratio", lower},
	{"trace.scan_share", "ratio", lower},
	// Read-path ledger (serve-read): in-process depths, then the daemons.
	{"serve.query_rules_us", "us", lower},
	{"serve.query_score_us", "us", lower},
	{"serve.handler_rules_us", "us", lower},
	{"serve.handler_score_us", "us", lower},
	{"serve.http_rules_us", "us", lower},
	{"serve.http_score_us", "us", lower},
	{"cluster.router_rules_us", "us", lower},
	{"cluster.router_score_us", "us", lower},
	{"cluster.merge_rules_us", "us", lower},
	{"cluster.merge_score_us", "us", lower},
	{"cluster.shards_per_score", "count", lower},
	{"cluster.fanout_attempts_per_op", "count", lower},
	{"cluster.retries", "count", lower},
	{"cluster.hedges", "count", lower},
	{"cluster.partials", "count", lower},
	{"serve.sheds", "count", lower},
	{"serve.panics", "count", lower},
	{"serve.cache_hit_rate", "ratio", higher},
	{"serve.response_bytes_p50", "bytes", lower},
	{"loadgen.lag_p99_ms", "ms", lower},
	{"negrouter.read_rps", "1/s", higher},
	{"negrouter.rules_p50_ms", "ms", lower},
	{"negrouter.rules_p99_ms", "ms", lower},
	{"negrouter.score_p50_ms", "ms", lower},
	{"negrouter.score_p99_ms", "ms", lower},
	{"negrouter.failed_share", "ratio", lower},
	// Write-path ledger (stream-mixed): in-process replay, then the daemons.
	{"seglog.append_ms", "ms", lower},
	{"seglog.seal_ms", "ms", lower},
	{"seglog.bytes_per_txn", "bytes", lower},
	{"incr.refresh_p50_s", "s", lower},
	{"incr.refresh_first_s", "s", lower},
	{"incr.refresh_last_s", "s", lower},
	{"incr.new_segments", "count", lower},
	{"incr.old_segment_scans", "count", lower},
	{"negmined.refresh_p50_s", "s", lower},
	{"negmined.visibility_overhead_p50_s", "s", lower},
	{"negmined.refreshes", "count", lower},
	{"negmined.segments", "count", lower},
	{"negmined.freshness_p50_s", "s", lower},
	{"negmined.freshness_p90_s", "s", lower},
	{"negmined.visible_txns_per_s", "1/s", higher},
	{"negrouter.ingest_ack_p50_ms", "ms", lower},
	{"cluster.ingest_forwarded", "count", higher},
	{"cluster.ingest_rerouted", "count", lower},
	{"cluster.ingest_no_primary", "count", lower},
}

func theManifest() manifest {
	return manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 12,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metrics collects a run's numbers by name; finish checks that exactly the
// declared set was emitted, each once.
type metrics struct {
	vals map[string]float64
	errs []string
}

func newMetrics() *metrics { return &metrics{vals: map[string]float64{}} }

func (m *metrics) set(name string, v float64) {
	if _, dup := m.vals[name]; dup {
		m.errs = append(m.errs, "metric emitted twice: "+name)
	}
	m.vals[name] = v
}

// finish maps the collected values onto the declared list for the trace
// mode. Per-layer metrics a workload did not emit are layers it never
// called, reported as 0; a missing end-to-end metric or an undeclared name
// is a harness bug.
func (m *metrics) finish(trace bool) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	declared := map[string]bool{}
	if trace {
		for _, d := range perLayer {
			declared[d.Name] = true
			out[d.Name] = metricValue{m.vals[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			declared[d.Name] = true
			v, ok := m.vals[d.Name]
			if !ok || v == 0 {
				m.errs = append(m.errs, "end-to-end metric missing or zero: "+d.Name)
			}
			out[d.Name] = metricValue{v, d.Unit}
		}
	}
	for name := range m.vals {
		if !declared[name] {
			m.errs = append(m.errs, "undeclared metric: "+name)
		}
	}
	if len(m.errs) > 0 {
		return out, fmt.Errorf("%s", strings.Join(m.errs, "; "))
	}
	return out, nil
}

// stamp identifies what was measured and where. It goes into every file the
// harness writes and onto standard error; the result line has no room for it.
type stamp struct {
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	CPUModel   string            `json:"cpu_model"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workload   string            `json:"workload,omitempty"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	BuildSecs  float64           `json:"daemon_build_s,omitempty"`
	Datasets   map[string]string `json:"datasets,omitempty"` // name → fingerprint
	Sizes      map[string]any    `json:"sizes,omitempty"`
}

func newStamp(root string) stamp {
	st := stamp{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Datasets:   map[string]string{},
		Sizes:      map[string]any{},
	}
	// The driver's checkout is not a git repository; "unknown" is expected there.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					st.CPUModel = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return st
}

func (s stamp) String() string {
	b, _ := json.Marshal(s)
	return string(b)
}
