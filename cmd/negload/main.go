// Command negload is the production workload simulator: it drives a live
// negmined (or negrouter) with a deterministic, seeded mix of /ingest,
// /score and /rules traffic — zipfian item popularity with seasonal drift
// and an optional flash-sale burst — while planting tracer itemsets to
// measure end-to-end rule freshness (ingest → rule visible in /rules).
//
//	negload -target http://127.0.0.1:8377 -tax tax.txt -duration 30s -rps 200 -tracers 2
//
// It prints a per-endpoint summary (latency quantiles, error/shed rates,
// the freshness distribution); -json prints the raw result instead. The
// committed numbers come from benchmark/ (workload stream-mixed), not here.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"negmine/internal/cli"
	"negmine/internal/loadsim"
	"negmine/internal/taxonomy"
)

func main() { cli.Main("negload", run) }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("negload", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		target  = fs.String("target", "http://127.0.0.1:8377", "base URL of the negmined or negrouter under test")
		taxPath = fs.String("tax", "", "taxonomy file defining the item dictionary (required)")
		seed    = fs.Int64("seed", 1, "workload seed; a fixed seed replays the identical request stream")

		duration = fs.Duration("duration", 10*time.Second, "scripted run length")
		rps      = fs.Float64("rps", 200, "offered request rate at amplitude 1")
		workers  = fs.Int("workers", 8, "executor pool size")
		queue    = fs.Int("queue", 0, "bounded op queue depth (0 = 2x workers)")

		mixIngest = fs.Float64("mix-ingest", 0.2, "ingest share of the request mix")
		mixScore  = fs.Float64("mix-score", 0.4, "score share of the request mix")
		mixRules  = fs.Float64("mix-rules", 0.4, "rules share of the request mix")

		basketMean  = fs.Float64("basket-mean", 4, "mean basket length (Poisson, >= 1)")
		batch       = fs.Int("batch", 16, "baskets per /ingest request")
		zipf        = fs.Float64("zipf", 1.0, "item popularity skew exponent (0 = uniform)")
		driftPhases = fs.Int("drift-phases", 4, "popularity rotation phases (<= 1 disables drift)")
		driftEvery  = fs.Int("drift-every", 0, "ops per drift phase (0 disables drift)")

		burstStart = fs.Duration("burst-start", 0, "flash-sale burst start (virtual time)")
		burstLen   = fs.Duration("burst-len", 0, "flash-sale burst length (0 disables)")
		burstAmp   = fs.Float64("burst-amp", 4, "burst rate multiplier")
		burstHot   = fs.Int("burst-hot", 4, "hot ranks burst draws concentrate on")

		tracers     = fs.Int("tracers", 0, "tracer itemsets to plant for freshness measurement")
		minsup      = fs.Float64("minsup", 0.02, "target's mining support threshold (sizes tracer plants)")
		seedTxns    = fs.Int("seed-txns", 0, "transactions already in the target's log (0 = read /metrics)")
		pollEvery   = fs.Duration("poll-every", 250*time.Millisecond, "/rules poll cadence for tracer visibility")
		pollTimeout = fs.Duration("poll-timeout", 0, "tracer visibility give-up (0 = duration+30s)")

		scoreLimit = fs.Int("score-limit", 0, "limit for /score responses (0 = server default)")

		jsonOut = fs.Bool("json", false, "print the raw result as JSON instead of the summary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *taxPath == "" {
		fs.Usage()
		return fmt.Errorf("-tax is required")
	}
	f, err := os.Open(*taxPath)
	if err != nil {
		return err
	}
	tax, err := taxonomy.Parse(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("parsing %s: %w", *taxPath, err)
	}
	dict := loadsim.DictFromTaxonomy(tax)

	if *pollTimeout <= 0 {
		*pollTimeout = *duration + 30*time.Second
	}
	cfg := loadsim.Config{
		Target: *target, Seed: *seed,
		Duration: *duration, RPS: *rps, Workers: *workers, QueueDepth: *queue,
		MixIngest: *mixIngest, MixScore: *mixScore, MixRules: *mixRules,
		BasketMean: *basketMean, IngestBatch: *batch, Zipf: *zipf,
		DriftEvery: *driftEvery, DriftPhases: *driftPhases,
		BurstStart: *burstStart, BurstLen: *burstLen, BurstAmp: *burstAmp, BurstHot: *burstHot,
		Tracers: *tracers, MinSupport: *minsup, SeedTxns: *seedTxns,
		PollEvery: *pollEvery, PollTimeout: *pollTimeout,
		ScoreLimit: *scoreLimit,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := loadsim.Run(ctx, cfg, dict)
	if err != nil {
		return err
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else {
		res.Print(out)
	}
	if fr := res.Freshness; fr != nil && fr.Missed > 0 {
		return fmt.Errorf("%d of %d tracer rules never became visible within %s", fr.Missed, fr.Tracers, cfg.PollTimeout)
	}
	return nil
}
