package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestTables12(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-table", "12"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"Table 1", "Table 2",
		"{perrier} =/=> {bryers}",
		"{bryers}", "200",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestFiguresSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep in -short mode")
	}
	var out bytes.Buffer
	// Heavy scaling keeps this a smoke test; MaxK bounds level depth.
	err := run([]string{"-fig", "5,7", "-scale", "100", "-minsups", "3,2", "-maxk", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"Figure 5", "naive(s)", "Figure 7", "analytic estimate",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestIOBoundRunsPinTheHashTree: -disk/-slowio runs are the paper's I/O-bound
// setting and keep its engine unless -backend says otherwise.
func TestIOBoundRunsPinTheHashTree(t *testing.T) {
	const pinned = "counting backend: hashtree"
	for _, tc := range []struct {
		args []string
		want bool
	}{
		{[]string{"-slowio", "1"}, true},
		{[]string{"-disk"}, true},
		{[]string{"-slowio", "1", "-backend", "bitmap"}, false},
		{nil, false},
	} {
		var out bytes.Buffer
		args := append([]string{"-fig", "5", "-scale", "100", "-minsups", "3", "-maxk", "2"}, tc.args...)
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if got := strings.Contains(out.String(), pinned); got != tc.want {
			t.Errorf("%v: output names the pinned backend = %v, want %v:\n%s", tc.args, got, tc.want, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("empty selection accepted")
	}
	if err := run([]string{"-fig", "5", "-minsups", "abc"}, &out); err == nil {
		t.Error("bad minsups accepted")
	}
	// The retired measurement modes and their knobs are unknown flags now;
	// benchmark/ is the only measurement harness.
	removed := []string{"-countout=x", "-reps=1", "-serveout=x", "-lookups=1", "-maxrps=1", "-overloadsec=1s"}
	for _, mode := range []string{"count", "serve", "overload", "ingest", "snap", "cluster"} {
		removed = append(removed, "-"+mode+"bench")
	}
	for _, flag := range removed {
		err := run([]string{"-table", "12", flag}, &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("removed flag %s: err = %v, want unknown-flag error", flag, err)
		}
	}
}

func TestParseFloats(t *testing.T) {
	got, err := parseFloats(" 2, 1.5 ,1,")
	if err != nil || len(got) != 3 || got[0] != 2 || got[1] != 1.5 || got[2] != 1 {
		t.Errorf("parseFloats = %v, %v", got, err)
	}
	if _, err := parseFloats("1,x"); err == nil {
		t.Error("bad float accepted")
	}
}
