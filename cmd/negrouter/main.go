// Command negrouter fronts a cluster of sharded negmined daemons: nodes
// register and heartbeat via POST /cluster/heartbeat (negmined
// -cluster-join), and the router fans queries out across the shards,
// merging the ranked results into the same document a single unsharded
// daemon would serve.
//
// Endpoints:
//
//	POST /score {"basket":[...]}   fan out to every shard, merge
//	GET  /rules?item=NAME          fan out to every shard, merge
//	GET  /healthz                  router liveness + routable-shard summary
//	GET  /metrics                  fan-out counters, latency, cluster status
//	POST /cluster/heartbeat        node registration + liveness
//	GET  /cluster/status           full shard/replica health table
//
// Failure model: per-shard timeouts, budgeted retries against sibling
// replicas, and one failure ledger per replica. A slow shard runs into the
// shard timeout like a dead one: its slice of the answer is omitted, the
// failure counts towards -down-after, and the response is HTTP 206 with
// "partial": true. -down-after failures in a row take a replica down for
// -probe-every; one that fails again on its first request back goes down
// for twice as long, up to 16 × -probe-every. A shard with no routable
// replica degrades the answer the same way; neither turns into a 500.
//
// Flags:
//
//	-addr host:port   listen address (default :8378)
//	-shards n         cluster width (required)
//	-shard-timeout d  per-shard fan-out budget, attempts included (default 2s)
//	-retry-budget f   retries as a fraction of request volume (default 0.1,
//	                  0 disables retries)
//	-retry-burst f    retry token cap, ≥ 1 while retries are on (default 3)
//	-probe-every d    health-probe interval, and a down replica's first
//	                  back-off (default 500ms)
//	-heartbeat-ttl d  heartbeat staleness bound: older marks the replica
//	                  suspect, twice older marks it down (default 3s)
//	-down-after n     consecutive request/probe failures that take a
//	                  replica down (default 3)
//	-read-timeout/-write-timeout/-idle-timeout  http.Server limits
//	-drain d          graceful-shutdown drain budget (default 10s)
//
// The router holds no durable state: restart it and the next heartbeat
// round re-registers the fleet. It shuts down gracefully on SIGINT/SIGTERM
// like negmined: listener closes, in-flight requests get -drain to finish.
// Invalid flag values exit 2 with usage; runtime failures exit 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"negmine/internal/cli"
	"negmine/internal/cluster"
)

func main() { cli.Main("negrouter", run) }

// config is everything run needs after flag parsing.
type config struct {
	addr   string
	router cluster.RouterConfig
	http   cli.HTTPFlags
}

// parseFlags builds the router config. Split from run so tests can build
// the handler without a listening socket.
func parseFlags(args []string, out io.Writer) (*config, error) {
	fs := flag.NewFlagSet("negrouter", flag.ContinueOnError)
	fs.SetOutput(out)
	cfg := &config{}
	cfg.http.Register(fs)
	fs.StringVar(&cfg.addr, "addr", ":8378", "listen address")
	var (
		shards       = fs.Int("shards", 0, "cluster width (required)")
		shardTO      = fs.Duration("shard-timeout", 2*time.Second, "per-shard fan-out budget, retries included")
		retryBudget  = fs.Float64("retry-budget", 0.1, "retries as a fraction of request volume (0 = no retries)")
		retryBurst   = fs.Float64("retry-burst", 3, "retry token cap")
		probeEvery   = fs.Duration("probe-every", 500*time.Millisecond, "health-probe interval, and a down replica's first back-off")
		heartbeatTTL = fs.Duration("heartbeat-ttl", 3*time.Second, "heartbeat staleness bound")
		downAfter    = fs.Int("down-after", 3, "consecutive request/probe failures that take a replica down")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *shards < 1 {
		return nil, cli.Usagef(fs, "-shards = %d, want ≥ 1 (the cluster width is required)", *shards)
	}
	if err := cfg.http.Check(fs); err != nil {
		return nil, err
	}
	if *shardTO <= 0 {
		return nil, cli.Usagef(fs, "-shard-timeout = %v, want > 0", *shardTO)
	}
	if *probeEvery <= 0 {
		return nil, cli.Usagef(fs, "-probe-every = %v, want > 0", *probeEvery)
	}
	if *heartbeatTTL <= 0 {
		return nil, cli.Usagef(fs, "-heartbeat-ttl = %v, want > 0", *heartbeatTTL)
	}
	if *retryBudget < 0 {
		return nil, cli.Usagef(fs, "-retry-budget = %v, want ≥ 0", *retryBudget)
	}
	// A retry spends a whole token, so a cap under 1 would disable retries.
	if *retryBudget > 0 && *retryBurst < 1 {
		return nil, cli.Usagef(fs, "-retry-burst = %v, want ≥ 1 while -retry-budget > 0", *retryBurst)
	}
	if *downAfter < 1 {
		return nil, cli.Usagef(fs, "-down-after = %d, want ≥ 1", *downAfter)
	}

	cfg.router = cluster.RouterConfig{
		Shards:       *shards,
		ShardTimeout: *shardTO,
		RetryBudget:  *retryBudget,
		RetryBurst:   *retryBurst,
		Pool: cluster.PoolConfig{
			Shards:        *shards,
			HeartbeatTTL:  *heartbeatTTL,
			ProbeInterval: *probeEvery,
			DownAfter:     *downAfter,
		},
	}
	if *retryBudget == 0 {
		cfg.router.RetryBudget = -1 // RouterConfig treats 0 as "default"; negative disables
	}
	return cfg, nil
}

func run(args []string, out io.Writer) error {
	cfg, err := parseFlags(args, out)
	if err != nil {
		return err
	}
	cfg.router.Logf = func(format string, args ...any) {
		fmt.Fprintf(out, "negrouter: "+format+"\n", args...)
	}
	rt, err := cluster.NewRouter(cfg.router)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	return cfg.http.Serve("negrouter", out, ln, func(ctx context.Context) (http.Handler, error) {
		go rt.Run(ctx) // heartbeat sweep + down-replica probe loop
		fmt.Fprintf(out, "negrouter: routing %d shards on http://%s\n", cfg.router.Shards, ln.Addr())
		return rt.Handler(), nil
	})
}
