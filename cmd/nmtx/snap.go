package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"negmine/internal/rulestore"
	"negmine/internal/snapfmt"
)

// runSnap implements the `nmtx snap` subcommand family over .nsnap snapshot
// files (the binary format cmd/negmined serves from and `negmine -snap`
// writes):
//
//	nmtx snap info FILE.nsnap           header, provenance and section table
//	nmtx snap verify FILE.nsnap         per-section checksum + structural check
//	nmtx snap diff OLD.nsnap NEW.nsnap  rule-set delta between two snapshots
func runSnap(args []string, out io.Writer) error {
	usage := func(format string, a ...any) error {
		fmt.Fprintln(out, `usage:
  nmtx snap info FILE.nsnap           header, provenance and section table
  nmtx snap verify FILE.nsnap         per-section checksum + structural check
  nmtx snap diff OLD.nsnap NEW.nsnap  rule-set delta between two snapshots`)
		return fmt.Errorf(format, a...)
	}
	if len(args) == 0 {
		return usage("snap: missing subcommand")
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "info":
		if len(rest) != 1 {
			return usage("snap info: want exactly one file")
		}
		return snapInfo(out, rest[0])
	case "verify":
		if len(rest) != 1 {
			return usage("snap verify: want exactly one file")
		}
		return snapVerify(out, rest[0])
	case "diff":
		if len(rest) != 2 {
			return usage("snap diff: want exactly two files")
		}
		return snapDiff(out, rest[0], rest[1])
	default:
		return usage("snap: unknown subcommand %q", verb)
	}
}

// snapInfo prints the header, meta provenance and section table of a valid
// snapshot file.
func snapInfo(out io.Writer, path string) error {
	f, err := snapfmt.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	img := f.Image
	h := img.Header
	fmt.Fprintf(out, "file:       %s (%d bytes)\n", path, f.Size())
	fmt.Fprintf(out, "version:    %d\n", h.Version)
	fmt.Fprintf(out, "generation: %d\n", h.Generation)
	fmt.Fprintf(out, "created:    %s\n", h.Created().UTC().Format("2006-01-02T15:04:05Z"))
	if img.Meta.Tool != "" || img.Meta.Source != "" {
		fmt.Fprintf(out, "written by: %s (%s)\n", img.Meta.Tool, img.Meta.Source)
	}
	fmt.Fprintf(out, "thresholds: minsup %g, minri %g\n", img.Meta.MinSupport, img.Meta.MinRI)
	lo, hi := img.RIRange()
	fmt.Fprintf(out, "rules:      %d (RI %.4g .. %.4g)\n", img.NumRules(), lo, hi)
	fmt.Fprintf(out, "items:      %d\n", img.NumItems())

	// The section table comes from the raw header, not the decoded image.
	_, table, err := snapfmt.DecodeHeader(f.Bytes())
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "sections:")
	for _, e := range table {
		fmt.Fprintf(out, "  %-11s off %8d  len %8d  crc %08x\n", e.Kind.Name(), e.Offset, e.Length, e.CRC)
	}
	return nil
}

// snapVerify checks every section checksum plus the structural invariants,
// reporting per-section status. A bad file is an error (exit 1) after the
// report prints.
func snapVerify(out io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rep, err := snapfmt.Check(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(out, "%s: generation %d, %d sections\n", path, rep.Header.Generation, len(rep.Sections))
	for _, s := range rep.Sections {
		if s.OK {
			fmt.Fprintf(out, "  %-11s ok   (%d bytes)\n", s.Kind.Name(), s.Length)
		} else {
			fmt.Fprintf(out, "  %-11s FAIL %s\n", s.Kind.Name(), s.Err)
		}
	}
	if rep.Structural != "" {
		fmt.Fprintf(out, "  structural  FAIL %s\n", rep.Structural)
	}
	if !rep.OK {
		return fmt.Errorf("%s: snapshot verification failed", path)
	}
	fmt.Fprintln(out, "ok")
	return nil
}

// snapDiff compares two snapshots' rule sets by rule signature
// (rulestore.Compare, exact RI) and prints added/removed/changed rules plus
// the count and RI-range deltas.
func snapDiff(out io.Writer, oldPath, newPath string) error {
	of, err := snapfmt.Open(oldPath)
	if err != nil {
		return fmt.Errorf("%s: %w", oldPath, err)
	}
	defer of.Close()
	nf, err := snapfmt.Open(newPath)
	if err != nil {
		return fmt.Errorf("%s: %w", newPath, err)
	}
	defer nf.Close()

	summarize := func(label, path string, img *snapfmt.Image) {
		lo, hi := img.RIRange()
		fmt.Fprintf(out, "%s %s: generation %d, %d rules (RI %.4g .. %.4g)\n",
			label, path, img.Header.Generation, img.NumRules(), lo, hi)
	}
	summarize("old", oldPath, of.Image)
	summarize("new", newPath, nf.Image)

	d := rulestore.Compare(imageStore(of.Image), imageStore(nf.Image), 0)
	if len(d.Appeared)+len(d.Disappeared)+len(d.Changed) == 0 {
		fmt.Fprintln(out, "identical rule sets")
		return nil
	}
	key := func(e rulestore.Entry) string {
		return strings.Join(e.Antecedent, ",") + " =/=> " + strings.Join(e.Consequent, ",")
	}
	var added, removed, changed []string
	for _, e := range d.Appeared {
		added = append(added, fmt.Sprintf("  + %s  RI %.4g", key(e), e.RI))
	}
	for _, e := range d.Disappeared {
		removed = append(removed, fmt.Sprintf("  - %s  RI %.4g", key(e), e.RI))
	}
	for _, c := range d.Changed {
		changed = append(changed, fmt.Sprintf("  ~ %s  RI %.4g -> %.4g", key(c.New), c.Old.RI, c.New.RI))
	}
	fmt.Fprintf(out, "added %d, removed %d, changed %d\n", len(added), len(removed), len(changed))
	for _, group := range [][]string{added, removed, changed} {
		sort.Strings(group)
		for _, line := range group {
			fmt.Fprintln(out, line)
		}
	}
	return nil
}

// imageStore reads a snapshot's rules and their interest into a rule store.
func imageStore(img *snapfmt.Image) *rulestore.Store {
	names := func(ids []int32) []string {
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = img.Name(int(id))
		}
		return out
	}
	es := make([]rulestore.Entry, img.NumRules())
	for i := range es {
		ante, cons := img.RuleSides(i)
		es[i] = rulestore.Entry{Antecedent: names(ante), Consequent: names(cons), RI: img.RI[i]}
	}
	return rulestore.FromEntries(es)
}
