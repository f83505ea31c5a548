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
// `negmine -gen/-alg/-backend` and `experiments` compare them.
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
//	POST /score {"basket":[...], "minRI":F}    negative rules the basket
//	                                           triggers (what this customer
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
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"negmine/internal/artifact"
	"negmine/internal/govern"
	"negmine/internal/item"
	"negmine/internal/negative"
	"negmine/internal/serve"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	default:
		fmt.Fprintln(os.Stderr, "negmined:", err)
		var ue *usageError
		if errors.As(err, &ue) {
			os.Exit(2) // conventional usage-error status
		}
		os.Exit(1)
	}
}

// usageError marks a flag-validation failure: the flags were parseable but
// their combination is invalid. main exits 2 for these (usage printed)
// instead of the generic 1.
type usageError struct{ err error }

func (e *usageError) Error() string { return e.err.Error() }
func (e *usageError) Unwrap() error { return e.err }

// usageErrf prints the flag set's usage and returns a usageError.
func usageErrf(fs *flag.FlagSet, format string, args ...any) error {
	fs.Usage()
	return &usageError{fmt.Errorf(format, args...)}
}

// config is everything run needs after flag parsing.
type config struct {
	addr     string
	watch    bool
	poll     time.Duration
	source   string // the file -watch polls
	loadFunc serve.LoadFunc

	readTimeout  time.Duration
	writeTimeout time.Duration
	idleTimeout  time.Duration
	reqTimeout   time.Duration
	drain        time.Duration

	gov     *govern.Controller // admission control (nil = admit everything)
	maxBody int64              // POST body bound (0 = serve default, <0 = off)

	ingest      *ingestController // streaming mode (nil = file modes)
	remineEvery time.Duration     // periodic re-mine trigger (streaming)
	ha          *haParams         // HA pair wiring, less node and logf (nil = solo)

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
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Bind before the (possibly slow) initial load so the node identity can
	// default to the real listen address — with -addr :0 the port isn't
	// known until now.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	advertise := advertiseAddr(ln.Addr().String(), cfg.advertise)
	nodeID := cfg.nodeID
	if nodeID == "" {
		nodeID = advertise
	}
	logf := func(format string, args ...any) { fmt.Fprintf(out, "negmined: "+format+"\n", args...) }

	opts := []serve.Option{
		serve.WithRequestTimeout(cfg.reqTimeout),
		serve.WithGovernor(cfg.gov),
		serve.WithMaxBodyBytes(cfg.maxBody),
		serve.WithNodeID(nodeID),
	}
	if cfg.ingest != nil {
		defer cfg.ingest.Close()
		opts = append(opts, serve.WithIngest(cfg.ingest))
	}
	var ha *haController
	if cfg.ha != nil {
		// The boot-time fence reconciliation happens here, synchronously:
		// a deposed primary comes up fenced before the listener serves a
		// single /ingest.
		cfg.ha.node, cfg.ha.logf = nodeID, logf
		ha, err = newHAController(*cfg.ha)
		if err != nil {
			return err
		}
		cfg.ingest.ha = ha
		opts = append(opts,
			serve.WithAuxHandler("/seglog/tail", ha.tailHandler()),
			serve.WithAuxHandler("/ha/promote", ha.promoteHandler(ctx)),
		)
	}
	srv, err := serve.NewServer(ctx, cfg.loadFunc, opts...)
	if err != nil {
		return err
	}
	if cfg.ingest != nil {
		cfg.ingest.attach(srv)
		if cfg.remineEvery > 0 {
			go cfg.ingest.remineLoop(ctx, cfg.remineEvery)
		}
	}
	if ha != nil {
		ha.start(ctx)
		fmt.Fprintf(out, "negmined: ha %s (store %s, epoch %d)\n",
			ha.currentRole(), cfg.ha.store.Dir(), cfg.ingest.log.Epoch())
	}
	if cfg.watch {
		go srv.WatchWith(ctx, cfg.source, cfg.poll)
	}
	if cfg.join != "" {
		roleFn := func() (string, int) { return "replica", 0 }
		if cfg.ingest != nil {
			roleFn = cfg.ingest.RoleLag
		}
		member := &clusterMember{
			join:   cfg.join,
			node:   nodeID,
			addr:   advertise,
			spec:   cfg.spec,
			every:  cfg.heartbeat,
			roleFn: roleFn,
			logf:   logf,
		}
		go member.run(ctx, srv)
		fmt.Fprintf(out, "negmined: joined cluster via %s as %s (shard %d/%d)\n",
			cfg.join, nodeID, cfg.spec.shard, cfg.spec.shards)
	}
	snap := srv.Snapshot()
	if info := snap.Info(); info.SourceKind != "" {
		fmt.Fprintf(out, "negmined: snapshot generation %d via %s in %.3fs\n",
			info.Generation, info.SourceKind, info.BuildSeconds)
	}
	fmt.Fprintf(out, "negmined: serving %d rules (source %s) on http://%s\n",
		snap.Len(), cfg.source, ln.Addr())

	hs := &http.Server{
		Handler:      srv.Handler(),
		ReadTimeout:  cfg.readTimeout,
		WriteTimeout: cfg.writeTimeout,
		IdleTimeout:  cfg.idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful shutdown: stop listening, let in-flight requests drain.
	// Restoring default signal handling first means a second SIGINT/SIGTERM
	// kills the process instead of being swallowed mid-drain.
	stop()
	fmt.Fprintf(out, "negmined: signal received, draining for up to %v\n", cfg.drain)
	sctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "negmined: drained, bye")
	return nil
}

// parseFlags builds the daemon config, including the LoadFunc that /reload
// re-invokes. Split from run so tests can drive the handler without a
// listening socket.
func parseFlags(args []string, out io.Writer) (*config, error) {
	fs := flag.NewFlagSet("negmined", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr     = fs.String("addr", ":8377", "listen address")
		repPath  = fs.String("report", "", "serve this report JSON (the negmine -format json output)")
		dataPath = fs.String("data", "", "mine this transaction file (basket text or .nmtx binary)")
		taxPath  = fs.String("tax", "", "taxonomy file (parent child edges); required")
		minSup   = fs.Float64("minsup", 0.02, "minimum relative support (mining mode)")
		minRI    = fs.Float64("minri", 0.5, "minimum rule interest (mining mode)")
		parallel = fs.Int("parallel", 1, "workers for scans, counting and candidate generation (mining mode)")
		maxK     = fs.Int("maxk", 0, "cap large-itemset size (0 = unlimited)")
		watch    = fs.Bool("watch", false, "poll the source file and reload when it settles")
		poll     = fs.Duration("poll", 2*time.Second, "poll interval for -watch")
		readTO   = fs.Duration("read-timeout", 10*time.Second, "http.Server read timeout (0 = none)")
		writeTO  = fs.Duration("write-timeout", 30*time.Second, "http.Server write timeout (0 = none)")
		idleTO   = fs.Duration("idle-timeout", 2*time.Minute, "http.Server idle-connection timeout (0 = none)")
		reqTO    = fs.Duration("request-timeout", 0, "per-request handler deadline (0 = none)")
		drain    = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")

		maxConc   = fs.Int("max-concurrent", 0, "requests served at once; enables admission control (0 = off)")
		maxQueue  = fs.Int("max-queue", 0, "requests waiting in FIFO order for a slot; requires -max-concurrent (0 = 4x -max-concurrent)")
		maxBody   = fs.String("max-body", "", "POST body size bound, e.g. 1MiB (empty = 1MiB, off = unbounded)")
		memBudget = fs.String("mem-budget", "auto", "re-mining memory budget, e.g. 2GiB (auto = 80% of GOMEMLIMIT/cgroup limit, off = unlimited)")

		ingestDir   = fs.String("ingest-dir", "", "segment-log directory; enables streaming mode with POST /ingest")
		remineEvery = fs.Duration("remine-every", 0, "re-mine whenever pending ingested data is this old (0 = off; streaming mode)")
		remineTxns  = fs.Int("remine-txns", 0, "re-mine after this many pending ingested transactions (0 = off; streaming mode)")

		snapDir  = fs.String("snapshot-dir", "", "snapshot store directory: boot from the newest .nsnap via mmap, persist refreshes; alone (no source) the daemon is a read-only replica of the store")
		snapSave = fs.Bool("snapshot-save", true, "persist every successful re-mine/refresh as a new snapshot generation (requires -snapshot-dir)")
		snapKeep = fs.Int("snapshot-keep", 4, "snapshot generations retained in the store (0 = all; requires -snapshot-dir)")

		haRole      = fs.String("ha-role", "", "high-availability ingest role: primary or standby (requires -ingest-dir and -seglog-store)")
		seglogStore = fs.String("seglog-store", "", "shared artifact store directory the HA pair replicates the segment log through")
		haPeer      = fs.String("ha-peer", "", "standby: the primary's base URL to tail (e.g. http://127.0.0.1:8377)")
		haLease     = fs.Duration("ha-lease", 3*time.Second, "standby failure-detector lease; expiry triggers promotion")
		haAckTO     = fs.Duration("ha-ack-timeout", 2*time.Second, "primary: max wait for the standby replication ack before answering 503")
		dedupWindow = fs.Int("dedup-window", 4096, "ingest idempotency window entries (streaming mode; 0 disables)")

		nodeID      = fs.String("node-id", "", "cluster node identity (default: the advertised host:port)")
		shardFlag   = fs.String("shard", "", "serve shard k of an n-wide cluster, as k/n (e.g. 0/3)")
		clusterJoin = fs.String("cluster-join", "", "negrouter base URL to register with and heartbeat (e.g. http://127.0.0.1:8378)")
		advertise   = fs.String("advertise", "", "host:port the router should dial (default: the listen address)")
		heartbeat   = fs.Duration("heartbeat", time.Second, "cluster heartbeat interval (requires -cluster-join)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *snapDir == "" {
		if set["snapshot-save"] || set["snapshot-keep"] {
			return nil, usageErrf(fs, "-snapshot-save/-snapshot-keep require -snapshot-dir")
		}
	}
	if *snapKeep < 0 {
		return nil, usageErrf(fs, "-snapshot-keep = %d, want ≥ 0", *snapKeep)
	}
	// Replica mode: a snapshot store and no rule source. The daemon serves
	// (and with -watch, follows) whatever a producer writes into the store;
	// no taxonomy file is needed because snapshots embed the item dictionary
	// and ancestor chains.
	replica := *snapDir != "" && *repPath == "" && *dataPath == "" && *ingestDir == ""
	if *taxPath == "" && !replica {
		return nil, usageErrf(fs, "-tax is required")
	}
	if *ingestDir != "" {
		// Streaming mode: -data is an optional one-time seed, -report makes
		// no sense (there is nothing to re-mine a report from), and -watch
		// would poll a directory our own appends keep touching.
		if *repPath != "" {
			return nil, usageErrf(fs, "-ingest-dir and -report are mutually exclusive")
		}
		if *watch {
			return nil, usageErrf(fs, "-watch cannot be combined with -ingest-dir (use -remine-every)")
		}
		if *remineEvery < 0 {
			return nil, usageErrf(fs, "-remine-every = %v, want ≥ 0", *remineEvery)
		}
		if *remineTxns < 0 {
			return nil, usageErrf(fs, "-remine-txns = %d, want ≥ 0", *remineTxns)
		}
		if *dedupWindow < 0 {
			return nil, usageErrf(fs, "-dedup-window = %d, want ≥ 0", *dedupWindow)
		}
		switch *haRole {
		case "":
			if *seglogStore != "" || *haPeer != "" {
				return nil, usageErrf(fs, "-seglog-store/-ha-peer require -ha-role")
			}
		case haRolePrimary, haRoleStandby:
			if *seglogStore == "" {
				return nil, usageErrf(fs, "-ha-role requires -seglog-store (the pair's shared replication store)")
			}
			if *haLease <= 0 {
				return nil, usageErrf(fs, "-ha-lease = %v, want > 0", *haLease)
			}
			if *haAckTO <= 0 {
				return nil, usageErrf(fs, "-ha-ack-timeout = %v, want > 0", *haAckTO)
			}
			if *haRole == haRoleStandby {
				if !strings.HasPrefix(*haPeer, "http://") && !strings.HasPrefix(*haPeer, "https://") {
					return nil, usageErrf(fs, "-ha-role standby requires -ha-peer, an http(s) URL for the primary")
				}
				if *dataPath != "" {
					return nil, usageErrf(fs, "-ha-role standby cannot seed from -data (its log is filled by replication)")
				}
			}
		default:
			return nil, usageErrf(fs, "unknown -ha-role %q (want primary or standby)", *haRole)
		}
	} else {
		if *remineEvery != 0 || *remineTxns != 0 {
			return nil, usageErrf(fs, "-remine-every/-remine-txns require -ingest-dir")
		}
		if *haRole != "" || *seglogStore != "" || *haPeer != "" {
			return nil, usageErrf(fs, "-ha-role/-seglog-store/-ha-peer require -ingest-dir (streaming mode)")
		}
		if set["dedup-window"] || set["ha-lease"] || set["ha-ack-timeout"] {
			return nil, usageErrf(fs, "-dedup-window/-ha-lease/-ha-ack-timeout require -ingest-dir (streaming mode)")
		}
		if !replica && (*repPath == "") == (*dataPath == "") {
			return nil, usageErrf(fs, "exactly one of -report or -data is required (or -snapshot-dir alone for replica mode)")
		}
	}
	if *poll <= 0 {
		return nil, usageErrf(fs, "-poll = %v, want > 0", *poll)
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"-read-timeout", *readTO}, {"-write-timeout", *writeTO},
		{"-idle-timeout", *idleTO}, {"-request-timeout", *reqTO}, {"-drain", *drain},
	} {
		if d.v < 0 {
			return nil, usageErrf(fs, "%s = %v, want ≥ 0", d.name, d.v)
		}
	}
	if *maxConc < 0 {
		return nil, usageErrf(fs, "-max-concurrent = %d, want ≥ 0", *maxConc)
	}
	if *maxQueue < 0 {
		return nil, usageErrf(fs, "-max-queue = %d, want ≥ 0", *maxQueue)
	}
	if *maxQueue > 0 && *maxConc == 0 {
		return nil, usageErrf(fs, "-max-queue requires -max-concurrent (a queue needs a concurrency ceiling to drain into)")
	}
	var spec shardSpec
	if *shardFlag != "" {
		s, err := parseShardSpec(*shardFlag)
		if err != nil {
			return nil, usageErrf(fs, "-shard: %v", err)
		}
		spec = s
	}
	if *clusterJoin != "" {
		if !strings.HasPrefix(*clusterJoin, "http://") && !strings.HasPrefix(*clusterJoin, "https://") {
			return nil, usageErrf(fs, "-cluster-join %q: want an http(s) URL", *clusterJoin)
		}
		if *heartbeat <= 0 {
			return nil, usageErrf(fs, "-heartbeat = %v, want > 0", *heartbeat)
		}
		if !spec.active() {
			spec = shardSpec{shard: 0, shards: 1} // single-shard cluster
		}
	} else if set["heartbeat"] || set["advertise"] {
		return nil, usageErrf(fs, "-heartbeat/-advertise require -cluster-join")
	}

	cfg := &config{
		addr: *addr, watch: *watch, poll: *poll,
		readTimeout: *readTO, writeTimeout: *writeTO, idleTimeout: *idleTO,
		reqTimeout: *reqTO, drain: *drain,
		spec: spec, join: strings.TrimRight(*clusterJoin, "/"),
		nodeID: *nodeID, advertise: *advertise, heartbeat: *heartbeat,
	}
	if *maxConc > 0 {
		cfg.gov = govern.NewController(govern.Config{MaxConcurrent: *maxConc, MaxQueue: *maxQueue})
	}
	switch strings.ToLower(*maxBody) {
	case "":
		// serve.DefaultMaxBodyBytes
	case "off", "none":
		cfg.maxBody = -1
	default:
		n, err := govern.ParseBytes(*maxBody)
		if err != nil {
			return nil, usageErrf(fs, "-max-body: %v", err)
		}
		cfg.maxBody = n
	}
	var mem *govern.Budget
	switch strings.ToLower(*memBudget) {
	case "auto":
		mem = govern.DefaultBudget()
	case "off", "none", "0":
		// unlimited, no ledger
	default:
		n, err := govern.ParseBytes(*memBudget)
		if err != nil {
			return nil, usageErrf(fs, "-mem-budget: %v", err)
		}
		if n > 0 {
			mem = govern.NewBudget(n)
		}
	}

	// Every mode loads through one loader; the store is opened here, once.
	l := &loader{spec: spec, out: out}
	cfg.loadFunc = l.load
	if *snapDir != "" {
		store, err := artifact.OpenFS(*snapDir, *snapKeep)
		if err != nil {
			return nil, fmt.Errorf("opening snapshot store %s: %w", *snapDir, err)
		}
		l.store, l.save = store, *snapSave
		cfg.source = store.ManifestPath() // what a replica's -watch polls: changes on every Put
	}

	// Naive and Improved yield the same rules, so the daemon fixes Improved
	// on the auto backend (both zero values); stage 1 is Cumulate.
	opt := negative.Options{MinSupport: *minSup, MinRI: *minRI}
	opt.Gen.MaxK = *maxK
	opt.Count.Parallelism = *parallel
	opt.Gen.Count.Parallelism = *parallel
	opt.Count.Mem = mem
	opt.Gen.Count.Mem = mem

	switch {
	case *repPath != "":
		cfg.source = *repPath
		l.src = reportSource(*repPath, *taxPath)
	case *ingestDir != "":
		ctrl, err := newIngestController(*ingestDir, *dataPath, *taxPath, opt, *remineTxns, *dedupWindow)
		if err != nil {
			return nil, err
		}
		cfg.ingest = ctrl
		cfg.remineEvery = *remineEvery
		cfg.source = *ingestDir
		l.src = ctrl.refresh
		if *haRole != "" {
			store, err := artifact.OpenFS(*seglogStore, 0)
			if err != nil {
				ctrl.Close()
				return nil, fmt.Errorf("opening seglog store %s: %w", *seglogStore, err)
			}
			cfg.ha = &haParams{
				log:        ctrl.log,
				store:      store,
				startRole:  *haRole,
				peer:       strings.TrimRight(*haPeer, "/"),
				leaseTTL:   *haLease,
				ackTimeout: *haAckTO,
				ingest:     ctrl,
			}
		}
	case *dataPath != "":
		cfg.source = *dataPath
		l.src = mineSource(*dataPath, *taxPath, opt)
	}
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
	if strings.HasSuffix(path, ".nmtx") || strings.HasSuffix(path, ".nmtx.gz") {
		return txdb.OpenFile(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return txdb.ReadBaskets(f, dict)
}
