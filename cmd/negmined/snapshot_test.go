package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"negmine"
	"negmine/internal/artifact"
	"negmine/internal/atomicio"
	"negmine/internal/bench"
	"negmine/internal/cli"
	"negmine/internal/fault"
	"negmine/internal/serve"
	"negmine/internal/txdb"
)

// newSnapDaemon is newDaemon with a capturable output writer, so tests can
// assert on the snapshot controller's boot/rejection/persist log lines.
func newSnapDaemon(t *testing.T, out io.Writer, args ...string) (*serve.Server, http.Handler) {
	t.Helper()
	d, _ := buildDaemon(t, out, args...)
	return d.srv, d.srv.Handler()
}

// writeShortDataset materializes the Short dataset as the .nmtx + taxonomy
// file pair mining mode consumes, and returns their paths.
func writeShortDataset(t *testing.T, dir string) (dataPath, taxPath string) {
	t.Helper()
	ds, err := bench.Short(100, 1)
	if err != nil {
		t.Fatalf("Short: %v", err)
	}
	dataPath = filepath.Join(dir, "short.nmtx")
	taxPath = filepath.Join(dir, "tax.txt")
	if err := txdb.WriteFile(dataPath, ds.DB); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	tf, err := os.Create(taxPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Tax.Write(tf); err != nil {
		t.Fatalf("taxonomy Write: %v", err)
	}
	tf.Close()
	return dataPath, taxPath
}

type metricsSnap struct {
	Snapshot struct {
		Rules      int    `json:"rules"`
		SourceKind string `json:"sourceKind"`
		Generation uint64 `json:"generation"`
	} `json:"snapshot"`
}

// TestSnapshotRestartRecovery is the restart-recovery drill: a mining daemon
// persists its snapshot, a refresh's persist is torn mid-write (the
// "kill -9 during refresh" window), and a restarted daemon must serve the
// last durable generation from mmap without touching the transaction file.
// Only when that generation is corrupted on disk does a restart re-mine.
func TestSnapshotRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	dataPath, taxPath := writeShortDataset(t, dir)
	snapDir := filepath.Join(dir, "snaps")
	args := []string{"-data", dataPath, "-tax", taxPath,
		"-minsup", "0.02", "-minri", "0.5", "-snapshot-dir", snapDir}

	// Daemon A: empty store, so boot mines and persists generation 1.
	var logA strings.Builder
	srvA, hA := newSnapDaemon(t, &logA, args...)
	info := srvA.Snapshot().Info()
	if info.SourceKind != "mined" || info.Generation != 1 {
		t.Fatalf("boot A: sourceKind=%q generation=%d, want mined/1", info.SourceKind, info.Generation)
	}
	if !strings.Contains(logA.String(), "snapshot generation 1 persisted") {
		t.Fatalf("boot A did not log the persist:\n%s", logA.String())
	}
	wantRules := srvA.Snapshot().Len()
	if wantRules == 0 {
		t.Fatal("daemon A mined no rules")
	}
	// Reference answer set to compare restarted daemons against.
	refItem := srvA.Snapshot().Entry(0).Antecedent[0]
	var wantResp rulesResp
	getJSON(t, hA, "/rules?item="+refItem, &wantResp)

	var m metricsSnap
	getJSON(t, hA, "/metrics", &m)
	if m.Snapshot.SourceKind != "mined" || m.Snapshot.Generation != 1 {
		t.Fatalf("/metrics snapshot block = %+v", m.Snapshot)
	}

	// Tear the refresh persist mid-write: the atomic writer dies, so the
	// store must keep generation 1 as its newest durable snapshot while the
	// daemon still swaps in (and serves) the freshly mined rule set.
	logA.Reset()
	disarm := fault.Enable(atomicio.PointWrite, fault.Error("torn mid-refresh"))
	code := postJSON(t, hA, "/reload?wait=1", "", nil)
	disarm()
	if code != http.StatusOK {
		t.Fatalf("/reload during torn persist: %d", code)
	}
	if !strings.Contains(logA.String(), "snapshot persist failed") {
		t.Fatalf("torn persist not logged:\n%s", logA.String())
	}
	if got := srvA.Snapshot().Len(); got != wantRules {
		t.Fatalf("after torn persist: serving %d rules, want %d", got, wantRules)
	}
	store, err := artifact.OpenFS(snapDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if latest, err := store.Latest(); err != nil || latest.Generation != 1 {
		t.Fatalf("store after torn persist: latest=%+v err=%v, want generation 1", latest, err)
	}

	// Daemon B restarts onto the same store. Arming the transaction-scan
	// failpoint proves the boot cannot be re-mining: any read of the .nmtx
	// file would fail the load.
	disarm = fault.Enable(txdb.PointScan, fault.Error("restart must not re-mine"))
	var logB strings.Builder
	srvB, hB := newSnapDaemon(t, &logB, args...)
	disarm()
	info = srvB.Snapshot().Info()
	if info.SourceKind != "mmap" || info.Generation != 1 {
		t.Fatalf("boot B: sourceKind=%q generation=%d, want mmap/1", info.SourceKind, info.Generation)
	}
	if got := srvB.Snapshot().Len(); got != wantRules {
		t.Fatalf("restarted daemon serves %d rules, want %d", got, wantRules)
	}
	var gotResp rulesResp
	getJSON(t, hB, "/rules?item="+refItem, &gotResp)
	if !reflect.DeepEqual(gotResp, wantResp) {
		t.Fatalf("mmap-booted answers diverge:\n got %+v\nwant %+v", gotResp, wantResp)
	}
	getJSON(t, hB, "/metrics", &m)
	if m.Snapshot.SourceKind != "mmap" || m.Snapshot.Generation != 1 || m.Snapshot.Rules != wantRules {
		t.Fatalf("/metrics after restart = %+v", m.Snapshot)
	}

	// A reload on the restarted daemon re-mines (by design: only boot reads
	// the store) and persists the result as generation 2.
	if code := postJSON(t, hB, "/reload?wait=1", "", nil); code != http.StatusOK {
		t.Fatalf("/reload on B: %d", code)
	}
	info = srvB.Snapshot().Info()
	if info.SourceKind != "mined" || info.Generation != 2 {
		t.Fatalf("B after reload: sourceKind=%q generation=%d, want mined/2", info.SourceKind, info.Generation)
	}

	// Corrupt both stored generations on disk: the next restart walks past
	// them (logging each rejection) and falls back to mining.
	gens, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 {
		t.Fatalf("store holds %d generations, want 2", len(gens))
	}
	for _, g := range gens {
		path, _, err := store.Localize(g.Generation)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x20
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var logC strings.Builder
	srvC, _ := newSnapDaemon(t, &logC, args...)
	info = srvC.Snapshot().Info()
	if info.SourceKind != "mined" || info.Generation != 3 {
		t.Fatalf("boot C: sourceKind=%q generation=%d, want mined/3", info.SourceKind, info.Generation)
	}
	if !strings.Contains(logC.String(), "generation 2 rejected") ||
		!strings.Contains(logC.String(), "generation 1 rejected") ||
		!strings.Contains(logC.String(), "rebuilding from source") {
		t.Fatalf("corrupt generations not logged:\n%s", logC.String())
	}
	if got := srvC.Snapshot().Len(); got != wantRules {
		t.Fatalf("re-mined daemon serves %d rules, want %d", got, wantRules)
	}
}

// TestSnapshotReplicaMode runs a producer/replica pair over one store: the
// producer (report mode) persists generations, the replica serves them from
// mmap with no taxonomy or data files at all, and a reload follows the
// producer onto the next generation.
func TestSnapshotReplicaMode(t *testing.T) {
	dir := t.TempDir()
	repPath := filepath.Join(dir, "rules.json")
	taxPath := filepath.Join(dir, "tax.txt")
	writePaperReport(t, repPath, taxPath)
	snapDir := filepath.Join(dir, "snaps")

	var prodLog strings.Builder
	srvP, _ := newSnapDaemon(t, &prodLog,
		"-report", repPath, "-tax", taxPath, "-snapshot-dir", snapDir)
	if info := srvP.Snapshot().Info(); info.SourceKind != "json" || info.Generation != 1 {
		t.Fatalf("producer boot: %+v", info)
	}

	// Replica: only -snapshot-dir. No -tax, no source — the snapshot embeds
	// the dictionary and ancestor chains.
	var repLog strings.Builder
	srvR, hR := newSnapDaemon(t, &repLog, "-snapshot-dir", snapDir)
	info := srvR.Snapshot().Info()
	if info.SourceKind != "mmap" || info.Generation != 1 {
		t.Fatalf("replica boot: sourceKind=%q generation=%d, want mmap/1", info.SourceKind, info.Generation)
	}
	if got, want := srvR.Snapshot().Len(), srvP.Snapshot().Len(); got != want {
		t.Fatalf("replica serves %d rules, producer %d", got, want)
	}

	// The ancestor index must work from the embedded dictionary: bryers
	// expands through frozenyogurt and surfaces the category-level rule.
	var rr rulesResp
	getJSON(t, hR, "/rules?item=bryers", &rr)
	if len(rr.Expanded) < 2 || rr.Expanded[1] != "frozenyogurt" {
		t.Fatalf("replica expansion = %v", rr.Expanded)
	}
	if len(rr.Rules) == 0 {
		t.Fatal("replica served no rules for bryers")
	}

	// Producer persists generation 2; a replica reload swaps onto it.
	if code := postJSON(t, srvP.Handler(), "/reload?wait=1", "", nil); code != http.StatusOK {
		t.Fatalf("producer /reload: %d", code)
	}
	if info := srvP.Snapshot().Info(); info.Generation != 2 {
		t.Fatalf("producer after reload: %+v", info)
	}
	if code := postJSON(t, hR, "/reload?wait=1", "", nil); code != http.StatusOK {
		t.Fatalf("replica /reload: %d", code)
	}
	info = srvR.Snapshot().Info()
	if info.SourceKind != "mmap" || info.Generation != 2 {
		t.Fatalf("replica after reload: sourceKind=%q generation=%d, want mmap/2", info.SourceKind, info.Generation)
	}

	// The replica's -watch source is the store manifest, which every Put
	// rewrites — that is what makes -watch follow the producer.
	d, _ := buildDaemon(t, io.Discard, "-snapshot-dir", snapDir)
	if filepath.Base(d.source) != artifact.ManifestName {
		t.Fatalf("replica watch source = %q, want the store manifest", d.source)
	}
}

// TestSnapshotStoreVersion2: a store whose only generation is
// testdata/paper-v2.nsnap — the paper report's snapshot as the version-2
// encoder wrote it — boots a -snapshot-dir-only replica and a daemon with a
// source alike, from the file (no parse, no mine), and both answer every
// /rules and /score request with the bytes the report itself gives.
func TestSnapshotStoreVersion2(t *testing.T) {
	dir := t.TempDir()
	repPath := filepath.Join(dir, "rules.json")
	taxPath := filepath.Join(dir, "tax.txt")
	writePaperReport(t, repPath, taxPath)
	ref, hRef := newSnapDaemon(t, io.Discard, "-report", repPath, "-tax", taxPath)

	v2, err := os.ReadFile(filepath.Join("testdata", "paper-v2.nsnap"))
	if err != nil {
		t.Fatal(err)
	}
	snapDir := filepath.Join(dir, "snaps")
	store, err := artifact.OpenFS(snapDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put("json", func(_ uint64, w io.Writer) error { _, err := w.Write(v2); return err }); err != nil {
		t.Fatal(err)
	}

	var targets []string
	for _, e := range ref.Snapshot().Rules() {
		for _, name := range append(append([]string(nil), e.Antecedent...), e.Consequent...) {
			for _, x := range ref.Snapshot().Expand(nil, name) {
				targets = append(targets, "/rules?item="+x, "/rules?item="+x+"&limit=1")
			}
		}
	}
	body := func(h http.Handler, method, target, in string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(in)))
		return fmt.Sprint(rec.Code, " ", rec.Body.String())
	}
	for _, args := range [][]string{
		{"-snapshot-dir", snapDir},
		{"-report", repPath, "-tax", taxPath, "-snapshot-dir", snapDir, "-snapshot-save=false"},
	} {
		srv, h := newSnapDaemon(t, io.Discard, args...)
		if info := srv.Snapshot().Info(); info.SourceKind != "mmap" || info.Generation != 1 || info.Rules != ref.Snapshot().Len() {
			t.Fatalf("%v: booted %+v, want the version-2 generation 1 via mmap", args, info)
		}
		for _, target := range targets {
			if got, want := body(h, http.MethodGet, target, ""), body(hRef, http.MethodGet, target, ""); got != want {
				t.Fatalf("%v GET %s: %s, report gives %s", args, target, got, want)
			}
		}
		matched := 0
		for _, basket := range []string{`["bryers","perrier"]`, `["evian","healthychoice","bryers"]`, `["frozenyogurt"]`} {
			in := `{"basket":` + basket + `}`
			got, want := body(h, http.MethodPost, "/score", in), body(hRef, http.MethodPost, "/score", in)
			if got != want {
				t.Fatalf("%v POST /score %s: %s, report gives %s", args, in, got, want)
			}
			matched += strings.Count(got, `"antecedent"`)
		}
		if len(targets) == 0 || matched == 0 {
			t.Fatalf("%v: %d /rules targets, %d /score matches: nothing compared", args, len(targets), matched)
		}
	}
}

// TestSnapshotReplicaEmptyStore: a replica pointed at an empty store has
// nothing to serve and must fail startup with a clear error.
func TestSnapshotReplicaEmptyStore(t *testing.T) {
	cfg, err := parseFlags([]string{"-snapshot-dir", t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	_, err = build(context.Background(), cfg, "", io.Discard, serve.WithLogger(func(string, ...any) {}))
	if err == nil {
		t.Fatal("replica on empty store started")
	}
	if !errors.Is(err, artifact.ErrEmpty) {
		t.Fatalf("replica boot error = %v, want ErrEmpty in the chain", err)
	}
}

// TestSnapshotSaveDisabled: -snapshot-save=false boots from the store when
// possible but never writes generations.
func TestSnapshotSaveDisabled(t *testing.T) {
	dir := t.TempDir()
	repPath := filepath.Join(dir, "rules.json")
	taxPath := filepath.Join(dir, "tax.txt")
	writePaperReport(t, repPath, taxPath)
	snapDir := filepath.Join(dir, "snaps")

	srv, _ := newSnapDaemon(t, io.Discard, "-report", repPath, "-tax", taxPath,
		"-snapshot-dir", snapDir, "-snapshot-save=false")
	info := srv.Snapshot().Info()
	if info.SourceKind != "json" || info.Generation != 0 {
		t.Fatalf("boot: %+v, want json/0", info)
	}
	store, err := artifact.OpenFS(snapDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gens, err := store.List(); err != nil || len(gens) != 0 {
		t.Fatalf("store gained generations with -snapshot-save=false: %v %v", gens, err)
	}
}

// TestSnapshotFlagValidation covers the snapshot flag combinations.
func TestSnapshotFlagValidation(t *testing.T) {
	var sink strings.Builder
	base := []string{"-tax", "t.txt", "-report", "r.json"}
	for _, extra := range [][]string{
		{"-snapshot-save=false"},                       // save toggle without a store
		{"-snapshot-keep", "2"},                        // retention without a store
		{"-snapshot-dir", "d", "-snapshot-keep", "-1"}, // negative retention
	} {
		_, err := parseFlags(append(append([]string{}, base...), extra...), &sink)
		if err == nil {
			t.Fatalf("%v accepted", extra)
		}
		if code := cli.ExitCode(err); code != 2 {
			t.Fatalf("%v: error %v exits %d, want 2 (usage)", extra, err, code)
		}
	}
	// Replica mode is the one configuration that needs neither -tax nor a
	// source; adding a source back requires -tax again.
	if _, err := parseFlags([]string{"-snapshot-dir", t.TempDir()}, &sink); err != nil {
		t.Fatalf("replica flags rejected: %v", err)
	}
	if _, err := parseFlags([]string{"-snapshot-dir", "d", "-report", "r.json"}, &sink); err == nil {
		t.Fatal("-snapshot-dir with -report but no -tax accepted")
	}
}

// writePaperReport writes the paper worked example as a report JSON +
// taxonomy file pair (the report-mode inputs).
func writePaperReport(t *testing.T, repPath, taxPath string) {
	t.Helper()
	tax, db, err := bench.PaperExample()
	if err != nil {
		t.Fatalf("PaperExample: %v", err)
	}
	res, err := negmine.MineNegative(db, tax, negmine.NegativeOptions{MinSupport: 0.04, MinRI: 0.5})
	if err != nil {
		t.Fatalf("MineNegative: %v", err)
	}
	rf, err := os.Create(repPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := negmine.WriteNegativeJSON(rf, res, 0.04, 0.5, tax.Name); err != nil {
		t.Fatalf("WriteNegativeJSON: %v", err)
	}
	rf.Close()
	tf, err := os.Create(taxPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tax.Write(tf); err != nil {
		t.Fatalf("taxonomy Write: %v", err)
	}
	tf.Close()
}
