// Command negmined is the rule-serving daemon: it loads a mined negative
// rule set into an immutable, item-indexed snapshot and answers concurrent
// queries over HTTP, re-mining (or re-reading) and atomically hot-swapping
// the snapshot without ever blocking readers.
//
// Three rule sources:
//
//	negmined -report rules.json -tax taxonomy.txt
//	    serve a report previously written by `negmine -format json`
//	    (or WriteNegativeJSON); /reload re-reads the file
//
//	negmined -data baskets.txt -tax taxonomy.txt -minsup 0.02 -minri 0.5
//	    mine at startup with the full pipeline; /reload re-mines from the
//	    (possibly updated) data file
//
//	negmined -ingest-dir ./log -tax taxonomy.txt [-data seed.txt]
//	    streaming mode: transactions live in a durable segment log, POST
//	    /ingest appends to it, and /reload (or the -remine-every /
//	    -remine-txns triggers) re-mines incrementally — only segments new
//	    since the last refresh are scanned. -data seeds an empty log once.
//
// The daemon mines with Cumulate and the improved algorithm on the auto
// counting backend. The paper's other miners yield the same rules;
// `negmine -alg/-backend` and `experiments` compare them.
//
// And one mode with no source:
//
//	negmined -snapshot-dir ./snaps
//	    replica mode: serve the newest .nsnap generation from a snapshot
//	    store via mmap — no taxonomy or data files needed (snapshots embed
//	    the dictionary and ancestor chains). With -watch the daemon polls
//	    the store manifest and swaps in new generations as a producer
//	    writes them.
//
// -snapshot-dir also composes with every source: the daemon boots from the
// newest stored generation when one validates (an mmap instead of a mine),
// falls back to the source when the store is empty or corrupt, and
// persists every successful re-mine/refresh as a new generation (disable
// with -snapshot-save=false). A torn or corrupted snapshot is rejected by
// checksum/structural validation and the previous generation keeps
// serving.
//
// Endpoints:
//
//	GET  /rules?item=NAME[&minri=F][&limit=N]  rules mentioning NAME or a
//	                                           taxonomy ancestor of it
//	POST /score {"basket":[...], "minRI":F,    negative rules the basket
//	             "limit":N}                    triggers (what this customer
//	                                           is unlikely to also buy)
//	GET  /healthz                              liveness + snapshot info
//	GET  /metrics                              request counts, latency
//	                                           histograms, reload state
//	POST /reload[?wait=1]                      rebuild + swap the snapshot
//	POST /ingest {"baskets":[[...],...]}       append transactions durably
//	                                           (streaming mode only)
//
// Flags:
//
//	-addr host:port   listen address (default :8377)
//	-report file      serve this report JSON (negmine -format json output)
//	-data file        transactions: basket text or .nmtx binary (mining mode)
//	-tax file         taxonomy: "parent child" edges (required)
//	-minsup/-minri    mining thresholds (mining mode)
//	-parallel/-maxk   mining pipeline knobs, as in negmine
//	-watch            poll the source file and reload when it settles
//	-poll d           watch interval (default 2s)
//	-read-timeout/-write-timeout/-idle-timeout  http.Server limits
//	-request-timeout  per-request handler deadline (0 = none)
//	-drain d          graceful-shutdown drain budget (default 10s)
//	-max-concurrent n requests served at once; enables admission control
//	-max-queue n      FIFO admission queue bound (requires -max-concurrent)
//	-max-body size    POST body bound (default 1MiB; "off" disables)
//	-mem-budget size  re-mining memory budget (default auto: 80% of the
//	                  GOMEMLIMIT/cgroup limit; "off" disables)
//	-ingest-dir dir   segment-log directory; enables streaming mode
//	-remine-every d   re-mine whenever pending data is this old (streaming)
//	-remine-txns n    re-mine after n pending transactions (streaming)
//	-snapshot-dir d   .nsnap store: mmap boot, persist refreshes; alone =
//	                  replica mode
//	-snapshot-save    persist refreshes as new generations (default true)
//	-snapshot-keep n  generations retained by store GC (default 4, 0 = all)
//	-node-id s        cluster node identity, echoed in /healthz, /metrics and
//	                  the X-Negmine-Node response header (default: the
//	                  advertised host:port)
//	-shard k/n        serve shard k of an n-wide cluster: only rules whose
//	                  first antecedent item hashes to shard k are indexed
//	-cluster-join URL register with a negrouter and heartbeat shard id,
//	                  snapshot generation and ingest role
//	-advertise a      host:port the router should dial (default: the listen
//	                  address, wildcard hosts rewritten to 127.0.0.1)
//	-heartbeat d      cluster heartbeat interval (default 1s)
//	-ha-role r        high-availability ingest role: primary or standby
//	                  (streaming mode; requires -seglog-store)
//	-seglog-store d   shared artifact store the HA pair replicates sealed
//	                  segments (and fencing epochs) through
//	-ha-peer URL      standby: the primary's base URL to tail
//	-ha-lease d       standby failure-detector lease; expiry promotes
//	                  (default 3s)
//	-ha-ack-timeout d primary: max wait for the standby's replication ack
//	                  before answering 503 (default 2s)
//	-dedup-window n   ingest idempotency window entries (default 4096;
//	                  streaming mode, 0 disables)
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener closes,
// in-flight requests get up to -drain to finish, and the process exits 0. A
// second signal aborts the drain. Invalid flag combinations exit 2 with
// usage; runtime failures exit 1.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"negmine/internal/artifact"
	"negmine/internal/cli"
	"negmine/internal/govern"
	"negmine/internal/item"
	"negmine/internal/negative"
	"negmine/internal/serve"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

func main() { cli.Main("negmined", run) }

// memAuto is config.memBudget's "auto": 80% of the detected memory limit.
const memAuto = -1

// config is the daemon's validated flags: plain values, resolved against the
// file system only by build.
type config struct {
	addr  string
	http  cli.HTTPFlags
	watch bool
	poll  time.Duration

	// Rule source: -report, -data (a seed in streaming mode) or -ingest-dir;
	// none of them is replica mode, served from the snapshot store alone.
	report, data, tax, ingestDir string
	// Naive and Improved yield the same rules, so the daemon mines with
	// Improved on the auto backend (both zero values); stage 1 is Cumulate.
	// build adds the memory budget.
	mine      negative.Options
	memBudget int64 // bytes (0 = unlimited, memAuto)

	reqTimeout time.Duration
	maxConc    int   // admission slots (0 = no admission control)
	maxQueue   int   // admission queue bound (0 = 4x maxConc)
	maxBody    int64 // POST body bound (0 = serve default, <0 = off)

	remineEvery time.Duration // periodic re-mine trigger (streaming)
	remineTxns  int           // pending-transaction re-mine trigger (streaming)
	dedupWindow int

	snapDir  string // "" = no snapshot store
	snapSave bool
	snapKeep int

	// HA pair (haRole "" = solo).
	haRole, seglogStore, haPeer string
	haLease, haAckTimeout       time.Duration

	// Cluster membership (zero values = standalone daemon).
	spec      shardSpec // -shard assignment
	join      string    // -cluster-join router base URL ("" = no cluster)
	nodeID    string    // -node-id ("" = default to advertised addr)
	advertise string    // -advertise override ("" = derive from listener)
	heartbeat time.Duration
}

func run(args []string, out io.Writer) error {
	cfg, err := parseFlags(args, out)
	if err != nil {
		return err
	}
	// Bind before the (possibly slow) build so the node identity can default
	// to the real listen address — with -addr :0 the port isn't known until
	// now.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	var d *daemon
	defer func() { d.close() }()
	return cfg.http.Serve("negmined", out, ln, func(ctx context.Context) (http.Handler, error) {
		advertise := advertiseAddr(ln.Addr().String(), cfg.advertise)
		nodeID := cmp.Or(cfg.nodeID, advertise)
		if d, err = build(ctx, cfg, nodeID, out); err != nil {
			return nil, err
		}
		if d.ingest != nil && cfg.remineEvery > 0 {
			go d.ingest.remineLoop(ctx, cfg.remineEvery)
		}
		if d.ha != nil {
			d.ha.start(ctx)
			fmt.Fprintf(out, "negmined: ha %s (store %s, epoch %d)\n",
				d.ha.currentRole(), d.ha.store.Dir(), d.ingest.log.Epoch())
		}
		if cfg.watch {
			go d.srv.WatchWith(ctx, d.source, cfg.poll)
		}
		if cfg.join != "" {
			roleFn := func() (string, int) { return "replica", 0 }
			if d.ingest != nil {
				roleFn = d.ingest.RoleLag
			}
			member := &clusterMember{
				join:   cfg.join,
				node:   nodeID,
				addr:   advertise,
				spec:   cfg.spec,
				every:  cfg.heartbeat,
				roleFn: roleFn,
				logf:   d.logf,
			}
			go member.run(ctx, d.srv)
			fmt.Fprintf(out, "negmined: joined cluster via %s as %s (shard %d/%d)\n",
				cfg.join, nodeID, cfg.spec.shard, cfg.spec.shards)
		}
		snap := d.srv.Snapshot()
		if info := snap.Info(); info.SourceKind != "" {
			fmt.Fprintf(out, "negmined: snapshot generation %d via %s in %.3fs\n",
				info.Generation, info.SourceKind, info.BuildSeconds)
		}
		fmt.Fprintf(out, "negmined: serving %d rules (source %s) on http://%s\n",
			snap.Len(), d.source, ln.Addr())
		return d.srv.Handler(), nil
	})
}

// daemon is negmined built from its config: the rule server and the
// controllers that feed it.
type daemon struct {
	srv    *serve.Server
	ingest *ingestController // streaming mode (nil = file modes)
	ha     *haController     // HA pair member (nil = solo)
	source string            // what -watch polls and the banner names
	logf   func(format string, args ...any)
}

// build opens what cfg names and loads the first snapshot: the snapshot
// store; in streaming mode the taxonomy and the segment log, seeded from
// -data when empty; and for an HA pair the seglog store, reconciling the
// boot-time fence synchronously, so a deposed primary comes up fenced
// before the listener serves a single /ingest. node is the cluster identity,
// ctx the daemon's lifetime; extra options go to serve.NewServer last.
func build(ctx context.Context, cfg *config, node string, out io.Writer, extra ...serve.Option) (_ *daemon, err error) {
	d := &daemon{logf: func(format string, args ...any) { fmt.Fprintf(out, "negmined: "+format+"\n", args...) }}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	// Every mode loads through one loader; the store is opened here, once.
	l := &loader{spec: cfg.spec, out: out}
	if cfg.snapDir != "" {
		store, err := artifact.OpenFS(cfg.snapDir, cfg.snapKeep)
		if err != nil {
			return nil, fmt.Errorf("opening snapshot store %s: %w", cfg.snapDir, err)
		}
		l.store, l.save = store, cfg.snapSave
		d.source = store.ManifestPath() // what a replica's -watch polls: changes on every Put
	}
	opts := []serve.Option{
		serve.WithRequestTimeout(cfg.reqTimeout),
		serve.WithMaxBodyBytes(cfg.maxBody),
		serve.WithNodeID(node),
	}
	if cfg.maxConc > 0 {
		opts = append(opts, serve.WithGovernor(govern.NewController(govern.Config{MaxConcurrent: cfg.maxConc, MaxQueue: cfg.maxQueue})))
	}
	opt := cfg.mine
	switch {
	case cfg.memBudget == memAuto:
		opt.Count.Mem = govern.DefaultBudget()
	case cfg.memBudget > 0:
		opt.Count.Mem = govern.NewBudget(cfg.memBudget)
	}
	opt.Gen.Count.Mem = opt.Count.Mem

	switch {
	case cfg.report != "":
		d.source = cfg.report
		l.src = reportSource(cfg.report, cfg.tax)
	case cfg.ingestDir != "":
		if d.ingest, err = newIngestController(cfg.ingestDir, cfg.data, cfg.tax, opt, cfg.remineTxns, cfg.dedupWindow); err != nil {
			return nil, err
		}
		d.source = cfg.ingestDir
		l.src = d.ingest.refresh
		opts = append(opts, serve.WithIngest(d.ingest))
		if cfg.haRole != "" {
			store, err := artifact.OpenFS(cfg.seglogStore, 0)
			if err != nil {
				return nil, fmt.Errorf("opening seglog store %s: %w", cfg.seglogStore, err)
			}
			d.ha, err = newHAController(haParams{
				log:        d.ingest.log,
				store:      store,
				node:       node,
				startRole:  cfg.haRole,
				peer:       cfg.haPeer,
				leaseTTL:   cfg.haLease,
				ackTimeout: cfg.haAckTimeout,
				ingest:     d.ingest,
				logf:       d.logf,
			})
			if err != nil {
				return nil, err
			}
			d.ingest.ha = d.ha
			opts = append(opts,
				serve.WithAuxHandler("/seglog/tail", d.ha.tailHandler()),
				serve.WithAuxHandler("/ha/promote", d.ha.promoteHandler(ctx)),
			)
		}
	case cfg.data != "":
		d.source = cfg.data
		l.src = mineSource(cfg.data, cfg.tax, opt)
	}
	if d.srv, err = serve.NewServer(ctx, l.load, append(opts, extra...)...); err != nil {
		return nil, err
	}
	if d.ingest != nil {
		d.ingest.srv = d.srv
	}
	return d, nil
}

// close releases what build opened; nil-safe.
func (d *daemon) close() {
	if d != nil && d.ingest != nil {
		d.ingest.Close()
	}
}

// parseFlags parses and validates args into a config. It touches no file,
// directory or socket: build does. Split from run so tests can check
// validation and build a daemon without a listening socket.
func parseFlags(args []string, out io.Writer) (*config, error) {
	fs := flag.NewFlagSet("negmined", flag.ContinueOnError)
	fs.SetOutput(out)
	cfg := &config{}
	cfg.http.Register(fs)
	fs.StringVar(&cfg.addr, "addr", ":8377", "listen address")
	fs.StringVar(&cfg.report, "report", "", "serve this report JSON (the negmine -format json output)")
	fs.StringVar(&cfg.data, "data", "", "mine this transaction file (basket text or .nmtx binary)")
	fs.StringVar(&cfg.tax, "tax", "", "taxonomy file (parent child edges); required")
	fs.Float64Var(&cfg.mine.MinSupport, "minsup", 0.02, "minimum relative support (mining mode)")
	fs.Float64Var(&cfg.mine.MinRI, "minri", 0.5, "minimum rule interest (mining mode)")
	fs.IntVar(&cfg.mine.Count.Parallelism, "parallel", 1, "workers for scans, counting and candidate generation (mining mode)")
	fs.IntVar(&cfg.mine.Gen.MaxK, "maxk", 0, "cap large-itemset size (0 = unlimited)")
	fs.BoolVar(&cfg.watch, "watch", false, "poll the source file and reload when it settles")
	fs.DurationVar(&cfg.poll, "poll", 2*time.Second, "poll interval for -watch")
	fs.DurationVar(&cfg.reqTimeout, "request-timeout", 0, "per-request handler deadline (0 = none)")

	fs.IntVar(&cfg.maxConc, "max-concurrent", 0, "requests served at once; enables admission control (0 = off)")
	fs.IntVar(&cfg.maxQueue, "max-queue", 0, "requests waiting in FIFO order for a slot; requires -max-concurrent (0 = 4x -max-concurrent)")
	maxBody := fs.String("max-body", "", "POST body size bound, e.g. 1MiB (empty = 1MiB, off = unbounded)")
	memBudget := fs.String("mem-budget", "auto", "re-mining memory budget, e.g. 2GiB (auto = 80% of GOMEMLIMIT/cgroup limit, off = unlimited)")

	fs.StringVar(&cfg.ingestDir, "ingest-dir", "", "segment-log directory; enables streaming mode with POST /ingest")
	fs.DurationVar(&cfg.remineEvery, "remine-every", 0, "re-mine whenever pending ingested data is this old (0 = off; streaming mode)")
	fs.IntVar(&cfg.remineTxns, "remine-txns", 0, "re-mine after this many pending ingested transactions (0 = off; streaming mode)")

	fs.StringVar(&cfg.snapDir, "snapshot-dir", "", "snapshot store directory: boot from the newest .nsnap via mmap, persist refreshes; alone (no source) the daemon is a read-only replica of the store")
	fs.BoolVar(&cfg.snapSave, "snapshot-save", true, "persist every successful re-mine/refresh as a new snapshot generation (requires -snapshot-dir)")
	fs.IntVar(&cfg.snapKeep, "snapshot-keep", 4, "snapshot generations retained in the store (0 = all; requires -snapshot-dir)")

	fs.StringVar(&cfg.haRole, "ha-role", "", "high-availability ingest role: primary or standby (requires -ingest-dir and -seglog-store)")
	fs.StringVar(&cfg.seglogStore, "seglog-store", "", "shared artifact store directory the HA pair replicates the segment log through")
	fs.StringVar(&cfg.haPeer, "ha-peer", "", "standby: the primary's base URL to tail (e.g. http://127.0.0.1:8377)")
	fs.DurationVar(&cfg.haLease, "ha-lease", 3*time.Second, "standby failure-detector lease; expiry triggers promotion")
	fs.DurationVar(&cfg.haAckTimeout, "ha-ack-timeout", 2*time.Second, "primary: max wait for the standby replication ack before answering 503")
	fs.IntVar(&cfg.dedupWindow, "dedup-window", 4096, "ingest idempotency window entries (streaming mode; 0 disables)")

	fs.StringVar(&cfg.nodeID, "node-id", "", "cluster node identity (default: the advertised host:port)")
	shardFlag := fs.String("shard", "", "serve shard k of an n-wide cluster, as k/n (e.g. 0/3)")
	fs.StringVar(&cfg.join, "cluster-join", "", "negrouter base URL to register with and heartbeat (e.g. http://127.0.0.1:8378)")
	fs.StringVar(&cfg.advertise, "advertise", "", "host:port the router should dial (default: the listen address)")
	fs.DurationVar(&cfg.heartbeat, "heartbeat", time.Second, "cluster heartbeat interval (requires -cluster-join)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	usagef := func(format string, args ...any) (*config, error) { return nil, cli.Usagef(fs, format, args...) }
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if cfg.snapDir == "" && (set["snapshot-save"] || set["snapshot-keep"]) {
		return usagef("-snapshot-save/-snapshot-keep require -snapshot-dir")
	}
	if cfg.snapKeep < 0 {
		return usagef("-snapshot-keep = %d, want ≥ 0", cfg.snapKeep)
	}
	// Replica mode: a snapshot store and no rule source. The daemon serves
	// (and with -watch, follows) whatever a producer writes into the store;
	// no taxonomy file is needed because snapshots embed the item dictionary
	// and ancestor chains.
	replica := cfg.snapDir != "" && cfg.report == "" && cfg.data == "" && cfg.ingestDir == ""
	if cfg.tax == "" && !replica {
		return usagef("-tax is required")
	}
	if cfg.ingestDir != "" {
		// Streaming mode: -data is an optional one-time seed, -report makes
		// no sense (there is nothing to re-mine a report from), and -watch
		// would poll a directory our own appends keep touching.
		if cfg.report != "" {
			return usagef("-ingest-dir and -report are mutually exclusive")
		}
		if cfg.watch {
			return usagef("-watch cannot be combined with -ingest-dir (use -remine-every)")
		}
		if cfg.remineEvery < 0 {
			return usagef("-remine-every = %v, want ≥ 0", cfg.remineEvery)
		}
		if cfg.remineTxns < 0 {
			return usagef("-remine-txns = %d, want ≥ 0", cfg.remineTxns)
		}
		if cfg.dedupWindow < 0 {
			return usagef("-dedup-window = %d, want ≥ 0", cfg.dedupWindow)
		}
		switch cfg.haRole {
		case "":
			if cfg.seglogStore != "" || cfg.haPeer != "" {
				return usagef("-seglog-store/-ha-peer require -ha-role")
			}
		case haRolePrimary, haRoleStandby:
			if cfg.seglogStore == "" {
				return usagef("-ha-role requires -seglog-store (the pair's shared replication store)")
			}
			if cfg.haLease <= 0 {
				return usagef("-ha-lease = %v, want > 0", cfg.haLease)
			}
			if cfg.haAckTimeout <= 0 {
				return usagef("-ha-ack-timeout = %v, want > 0", cfg.haAckTimeout)
			}
			if cfg.haRole == haRoleStandby {
				if !strings.HasPrefix(cfg.haPeer, "http://") && !strings.HasPrefix(cfg.haPeer, "https://") {
					return usagef("-ha-role standby requires -ha-peer, an http(s) URL for the primary")
				}
				if cfg.data != "" {
					return usagef("-ha-role standby cannot seed from -data (its log is filled by replication)")
				}
			}
		default:
			return usagef("unknown -ha-role %q (want primary or standby)", cfg.haRole)
		}
	} else {
		if cfg.remineEvery != 0 || cfg.remineTxns != 0 {
			return usagef("-remine-every/-remine-txns require -ingest-dir")
		}
		if cfg.haRole != "" || cfg.seglogStore != "" || cfg.haPeer != "" {
			return usagef("-ha-role/-seglog-store/-ha-peer require -ingest-dir (streaming mode)")
		}
		if set["dedup-window"] || set["ha-lease"] || set["ha-ack-timeout"] {
			return usagef("-dedup-window/-ha-lease/-ha-ack-timeout require -ingest-dir (streaming mode)")
		}
		if !replica && (cfg.report == "") == (cfg.data == "") {
			return usagef("exactly one of -report or -data is required (or -snapshot-dir alone for replica mode)")
		}
	}
	if cfg.poll <= 0 {
		return usagef("-poll = %v, want > 0", cfg.poll)
	}
	if err := cfg.http.Check(fs); err != nil {
		return nil, err
	}
	if cfg.reqTimeout < 0 {
		return usagef("-request-timeout = %v, want ≥ 0", cfg.reqTimeout)
	}
	if cfg.maxConc < 0 {
		return usagef("-max-concurrent = %d, want ≥ 0", cfg.maxConc)
	}
	if cfg.maxQueue < 0 {
		return usagef("-max-queue = %d, want ≥ 0", cfg.maxQueue)
	}
	if cfg.maxQueue > 0 && cfg.maxConc == 0 {
		return usagef("-max-queue requires -max-concurrent (a queue needs a concurrency ceiling to drain into)")
	}
	if *shardFlag != "" {
		s, err := parseShardSpec(*shardFlag)
		if err != nil {
			return usagef("-shard: %v", err)
		}
		cfg.spec = s
	}
	if cfg.join != "" {
		if !strings.HasPrefix(cfg.join, "http://") && !strings.HasPrefix(cfg.join, "https://") {
			return usagef("-cluster-join %q: want an http(s) URL", cfg.join)
		}
		if cfg.heartbeat <= 0 {
			return usagef("-heartbeat = %v, want > 0", cfg.heartbeat)
		}
		if !cfg.spec.active() {
			cfg.spec = shardSpec{shard: 0, shards: 1} // single-shard cluster
		}
	} else if set["heartbeat"] || set["advertise"] {
		return usagef("-heartbeat/-advertise require -cluster-join")
	}
	switch strings.ToLower(*maxBody) {
	case "":
		// serve.DefaultMaxBodyBytes
	case "off", "none":
		cfg.maxBody = -1
	default:
		n, err := govern.ParseBytes(*maxBody)
		if err != nil {
			return usagef("-max-body: %v", err)
		}
		cfg.maxBody = n
	}
	switch strings.ToLower(*memBudget) {
	case "auto":
		cfg.memBudget = memAuto
	case "off", "none", "0":
		// unlimited, no ledger
	default:
		n, err := govern.ParseBytes(*memBudget)
		if err != nil {
			return usagef("-mem-budget: %v", err)
		}
		cfg.memBudget = max(n, 0)
	}
	cfg.mine.Gen.Count.Parallelism = cfg.mine.Count.Parallelism
	cfg.haPeer = strings.TrimRight(cfg.haPeer, "/")
	cfg.join = strings.TrimRight(cfg.join, "/")
	return cfg, nil
}

func loadTaxonomy(path string) (*taxonomy.Taxonomy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tax, err := taxonomy.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("parsing taxonomy %s: %w", path, err)
	}
	return tax, nil
}

func loadData(path string, dict *item.Dictionary) (txdb.DB, error) {
	if txdb.IsBinaryPath(path) {
		return txdb.OpenFile(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return txdb.ReadBaskets(f, dict)
}
