package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"negmine/internal/cluster"
)

// runCluster implements the `nmtx cluster` subcommand family:
//
//	nmtx cluster status -router URL   shard health, generations, failures
//	nmtx cluster promote -node URL    manually promote a standby negmined
func runCluster(args []string, out io.Writer) error {
	usage := func(format string, a ...any) error {
		fmt.Fprintln(out, `usage:
  nmtx cluster status -router URL   shard/replica health table from a negrouter
  nmtx cluster promote -node URL    promote a standby negmined to ingest primary`)
		return fmt.Errorf(format, a...)
	}
	if len(args) == 0 {
		return usage("cluster: missing subcommand")
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "status":
		fs := flag.NewFlagSet("nmtx cluster status", flag.ContinueOnError)
		fs.SetOutput(out)
		router := fs.String("router", "http://127.0.0.1:8378", "negrouter base URL")
		timeout := fs.Duration("timeout", 5*time.Second, "request timeout")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if fs.NArg() != 0 {
			return usage("cluster status: unexpected arguments %v", fs.Args())
		}
		return clusterStatus(out, strings.TrimRight(*router, "/"), *timeout)
	case "promote":
		fs := flag.NewFlagSet("nmtx cluster promote", flag.ContinueOnError)
		fs.SetOutput(out)
		node := fs.String("node", "", "standby negmined base URL (e.g. http://127.0.0.1:8380)")
		timeout := fs.Duration("timeout", 10*time.Second, "request timeout")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if fs.NArg() != 0 {
			return usage("cluster promote: unexpected arguments %v", fs.Args())
		}
		if *node == "" || !strings.HasPrefix(*node, "http") {
			return usage("cluster promote: -node must be the standby's http(s) URL")
		}
		return clusterPromote(out, strings.TrimRight(*node, "/"), *timeout)
	default:
		return usage("cluster: unknown subcommand %q", verb)
	}
}

// clusterPromote triggers a manual failover: POST /ha/promote on the
// standby. The daemon bumps the fencing epoch, publishes it in the shared
// seglog store (fencing the old primary), and starts accepting writes.
func clusterPromote(out io.Writer, node string, timeout time.Duration) error {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Post(node+"/ha/promote", "application/json", nil)
	if err != nil {
		return fmt.Errorf("promoting %s: %w", node, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	var doc struct {
		Status string `json:"status"`
		Epoch  int64  `json:"epoch"`
		Error  string `json:"error"`
	}
	_ = json.Unmarshal(raw, &doc)
	if resp.StatusCode != http.StatusOK {
		msg := doc.Error
		if msg == "" {
			msg = strings.TrimSpace(string(raw))
		}
		return fmt.Errorf("%s/ha/promote: HTTP %d: %s", node, resp.StatusCode, msg)
	}
	switch doc.Status {
	case "promoted":
		fmt.Fprintf(out, "%s promoted to ingest primary at epoch %d\n", node, doc.Epoch)
	case "already-primary":
		fmt.Fprintf(out, "%s is already the ingest primary (epoch %d)\n", node, doc.Epoch)
	default:
		fmt.Fprintf(out, "%s: %s\n", node, strings.TrimSpace(string(raw)))
	}
	return nil
}

// clusterStatus fetches and renders the router's shard/replica table.
func clusterStatus(out io.Writer, router string, timeout time.Duration) error {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(router + "/cluster/status")
	if err != nil {
		return fmt.Errorf("querying %s: %w", router, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/cluster/status: HTTP %d: %s", router, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var st cluster.Status
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("parsing cluster status: %w", err)
	}

	health := "ok"
	if st.Routable < st.Shards {
		health = "DEGRADED"
	}
	fmt.Fprintf(out, "router:  %s (%s)\n", router, health)
	fmt.Fprintf(out, "shards:  %d (%d routable), %d replicas, %d heartbeats",
		st.Shards, st.Routable, st.Registered, st.Heartbeats)
	if st.HeartbeatErrs > 0 {
		fmt.Fprintf(out, " (%d rejected)", st.HeartbeatErrs)
	}
	fmt.Fprintln(out)
	for _, shard := range st.Table {
		route := "routable"
		if !shard.Routable {
			route = "NOT ROUTABLE"
		}
		fmt.Fprintf(out, "shard %d  %s\n", shard.Shard, route)
		if len(shard.Replicas) == 0 {
			fmt.Fprintf(out, "  (no registered replicas)\n")
			continue
		}
		for _, r := range shard.Replicas {
			fmt.Fprintf(out, "  %-20s %-22s %-10s gen %-5d age %6.1fs  fresh %6.1fs  rules %d",
				r.Node, r.Addr, r.State, r.Generation, r.AgeSeconds, r.FreshnessSeconds, r.Rules)
			if r.SourceKind != "" {
				fmt.Fprintf(out, "  via %s", r.SourceKind)
			}
			if r.IngestRole != "" {
				fmt.Fprintf(out, "  ingest %s", r.IngestRole)
				if r.ReplLagSegments > 0 {
					fmt.Fprintf(out, " (lag %d segs)", r.ReplLagSegments)
				}
			}
			if r.Failures > 0 {
				fmt.Fprintf(out, "  %d/%d failed", r.Failures, r.Requests)
			}
			fmt.Fprintln(out)
		}
	}
	if st.Routable < st.Shards {
		return fmt.Errorf("cluster degraded: %d of %d shards routable", st.Routable, st.Shards)
	}
	return nil
}
