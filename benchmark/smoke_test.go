package main

import (
	"bytes"
	"context"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// claims lists, per workload, the per-layer metrics the workload exists to
// produce (they must be measured, hence non-zero) and the output checks it
// must run.
var claims = map[string]struct {
	layers []string
	checks []string
}{
	wlBatchTall: {
		layers: []string{"datagen.generate_s", "gen.stage1_s", "gen.large_itemsets", "taxonomy.restrict_s",
			"negative.candgen_s", "negative.candidates", "negative.candgen_us_per_candidate", "negative.stages23_s",
			"negative.mine_alloc_mb", "count.negpass_s", "count.negpass_candidates_per_s",
			"bitmat.build_s", "bitmat.counts_s", "bitmat.matrix_bytes", "bitmat.andpopcount_ns_per_word",
			"report.build_s", "rulestore.from_report_s", "serve.snapshot_build_s", "serve.arena_bytes",
			"snapfmt.encode_s", "snapfmt.file_bytes", "snapfmt.open_s",
			"trace.remine_s", "trace.root_s", "trace.candgen_share", "trace.scan_share"},
		checks: []string{"cycles-identical", "naive-oracle", "hashtree-oracle", "nsnap-roundtrip"},
	},
	wlServeRead: {
		layers: []string{"serve.query_rules_us", "serve.query_score_us", "serve.handler_rules_us", "serve.handler_score_us",
			"serve.http_rules_us", "serve.http_score_us", "cluster.router_rules_us", "cluster.router_score_us",
			"cluster.merge_rules_us", "cluster.merge_score_us", "cluster.shards_per_score", "cluster.fanout_attempts_per_op",
			"serve.response_bytes_p50", "negrouter.read_rps", "negrouter.rules_p50_ms", "negrouter.rules_p99_ms",
			"negrouter.score_p50_ms", "negrouter.score_p99_ms"},
		checks: []string{"depths-monotone", "router-vs-unsharded"},
	},
	wlStreamMixed: {
		layers: []string{"seglog.append_ms", "seglog.seal_ms", "seglog.bytes_per_txn",
			"incr.refresh_p50_s", "incr.refresh_first_s", "incr.refresh_last_s", "incr.new_segments",
			"report.build_s", "rulestore.from_report_s", "serve.snapshot_build_s",
			"negmined.refresh_p50_s", "negmined.refreshes", "negmined.segments",
			"negmined.freshness_p50_s", "negmined.freshness_p90_s", "negmined.visible_txns_per_s",
			"negrouter.ingest_ack_p50_ms", "cluster.ingest_forwarded", "negrouter.read_rps",
			"negrouter.rules_p50_ms", "negrouter.score_p50_ms", "loadgen.lag_p99_ms"},
		checks: []string{"tids-contiguous", "rounds-visible", "served-equals-batch-oracle"},
	},
}

func init() { claims[wlBatchWide] = claims[wlBatchTall] }

var checkLineRe = regexp.MustCompile(`(?m)^check (ok  |FAIL) (\S+?):?( |$)`)

// TestBenchmarkSmoke runs every workload end to end at toy size, untraced
// and traced, so that `go test` in this directory notices when the harness
// and the code it measures drift apart. The process workloads build and
// boot the real daemons; -short skips them.
func TestBenchmarkSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w.Name + "/untraced"
			if trace {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				if testing.Short() && (w.Name == wlServeRead || w.Name == wlStreamMixed) {
					t.Skip("process workload skipped under -short")
				}
				var log bytes.Buffer
				res, err := runWorkload(context.Background(), w.Name, 1, 1, trace, toySizes, &log)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}

				// Exactly the declared metrics for the mode, each once
				// (metrics.finish rejects duplicates and strangers).
				var declared []string
				if trace {
					for _, d := range perLayer {
						declared = append(declared, d.Name)
					}
				} else {
					for _, d := range endToEnd {
						declared = append(declared, d.Name)
					}
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(declared))
				}
				for _, name := range declared {
					v, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s not emitted", name)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, v.Value)
					}
				}
				c := claims[w.Name]
				if trace {
					for _, name := range c.layers {
						if res.Metrics[name].Value == 0 {
							t.Errorf("%s claims %s but reported 0", w.Name, name)
						}
					}
					// The workloads are chosen to stress disjoint layers: no
					// mining span on the read path, no routing on a batch cycle.
					if w.Name == wlServeRead {
						for _, name := range []string{"gen.stage1_s", "negative.candgen_s", "count.negpass_s", "incr.refresh_p50_s"} {
							if res.Metrics[name].Value != 0 {
								t.Errorf("serve-read reported %s = %v; it must not mine", name, res.Metrics[name].Value)
							}
						}
					}
					if w.Name == wlBatchTall || w.Name == wlBatchWide {
						for _, name := range []string{"cluster.router_rules_us", "negrouter.read_rps", "seglog.append_ms"} {
							if res.Metrics[name].Value != 0 {
								t.Errorf("%s reported %s = %v", w.Name, name, res.Metrics[name].Value)
							}
						}
					}
				}

				// Every output check ran (and the log says so).
				var ran []string
				for _, m := range checkLineRe.FindAllStringSubmatch(log.String(), -1) {
					ran = append(ran, m[2])
				}
				want := append([]string(nil), c.checks...)
				if !trace && w.Name == wlServeRead {
					want = []string{"router-vs-unsharded"} // the depths exist only in the traced run
				}
				sort.Strings(ran)
				sort.Strings(want)
				if strings.Join(ran, ",") != strings.Join(want, ",") {
					t.Errorf("checks run: %v, want %v", ran, want)
				}
			})
		}
	}
}
