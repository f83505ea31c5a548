package negmine_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleBuilds compiles and vets the nested benchmark module,
// which `go test ./...` from the root does not descend into: a change that
// breaks a symbol benchmark/ imports fails here instead of later, when the
// benchmark is built from its checkout.
func TestBenchmarkModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the nested benchmark module; skipped in -short")
	}
	for _, args := range [][]string{
		// -o os.DevNull: a lone main package would otherwise drop its
		// executable into benchmark/.
		{"build", "-C", "benchmark", "-o", os.DevNull, "./..."},
		{"vet", "-C", "benchmark", "./..."},
	} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Errorf("go %v: %v\n%s", args, err, out)
		}
	}
}
