package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"negmine/internal/datagen"
	"negmine/internal/gen"
	"negmine/internal/negative"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// modelSeed fixes the taxonomy and the cluster model of every generated
// dataset: the paper's Short and Tall are each one model, and the cost the
// batch workloads exist to expose (candidates spawned per large itemset) is a
// property of the model. --seed chooses the transactions drawn from it.
const modelSeed = 1

// env is what every workload gets: where things are, how long to measure,
// and where to report.
type env struct {
	ctx     context.Context
	root    string // repository (or driver checkout) root
	workDir string // scratch for this run, removed on exit
	outDir  string // benchmark/out
	seed    int64
	seconds float64
	trace   bool
	size    sizes
	log     io.Writer // human-readable progress (standard error)
	stamp   stamp
	checks  *checks
}

// window is the timed window, or the given share of it: a traced run splits
// --seconds between its untraced baseline and its traced parts.
func (e *env) window(share float64) time.Duration {
	return time.Duration(e.seconds * share * float64(time.Second))
}

// reps is how often set-up runs. Only the untraced run reports setup_s, so
// only it repeats set-up to take a median.
func (e *env) reps() int {
	if e.trace {
		return 1
	}
	return e.size.setupReps
}

// outcome is what a workload hands back: its metrics and the operation
// counts of the result line.
type outcome struct {
	m                 *metrics
	attempted, failed int
}

// checks records the output checks a run made. Every check runs outside the
// timed regions; any failure makes the result incorrect and the exit status
// non-zero.
type checks struct {
	log    io.Writer
	ran    []string
	failed []string
}

func (c *checks) check(name string, ok bool, format string, args ...any) {
	c.ran = append(c.ran, name)
	if ok {
		fmt.Fprintf(c.log, "check ok   %s\n", name)
		return
	}
	msg := name + ": " + fmt.Sprintf(format, args...)
	c.failed = append(c.failed, msg)
	fmt.Fprintf(c.log, "check FAIL %s\n", msg)
}

// repoRoot walks up from the working directory to the directory holding
// the negmine module, so the harness works from the root (run.sh, the
// driver) and from benchmark/ (go test).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module negmine\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("negbench: no negmine module above the working directory")
		}
		dir = parent
	}
}

// dataset is one generated input with the fingerprint stamped on results.
type dataset struct {
	name string
	tax  *taxonomy.Taxonomy
	db   *txdb.MemDB
	fp   string
}

// generate draws the first n transactions of the model's stream.
func generate(p datagen.Params, n int) (*taxonomy.Taxonomy, *txdb.MemDB, error) {
	p.NumTransactions = n
	p.Seed = modelSeed
	return datagen.Generate(p)
}

// sampled generates the model's first n + n/100 transactions and drops the
// n/100 of them that seed selects; the rest are renumbered 1..n in stream
// order. The seed perturbs the input rather than redrawing it because the
// cost of a re-mine is not smooth in its input: keeping a random half moved
// batch-tall's cycle time by ±13 % between seeds (itemsets near the support
// threshold flip and each spawns hundreds of candidates), which would bury
// any change a later PR makes under the choice of seed.
func sampled(name string, p datagen.Params, n int, seed int64) (*dataset, error) {
	tax, pop, err := generate(p, n+n/100)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", name, err)
	}
	all := pop.Transactions()
	pick := rand.New(rand.NewSource(seed)).Perm(len(all))[:n]
	sort.Ints(pick)
	db := &txdb.MemDB{}
	for i, j := range pick {
		db.Append(txdb.Transaction{TID: int64(i + 1), Items: all[j].Items})
	}
	return &dataset{name: name, tax: tax, db: db, fp: fingerprintDB(db)}, nil
}

func fingerprintDB(db *txdb.MemDB) string {
	h := sha256.New()
	var buf [4]byte
	for _, tx := range db.Transactions() {
		for _, it := range tx.Items {
			binary.LittleEndian.PutUint32(buf[:], uint32(it))
			h.Write(buf[:])
		}
		h.Write([]byte{0xff, 0xff, 0xff, 0xff})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func fingerprintBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}

// fingerprintResult hashes everything a mining run decided: the negative
// itemsets with their counts and every rule with its measures.
func fingerprintResult(res *negative.Result) string {
	h := sha256.New()
	for _, n := range res.Negatives {
		fmt.Fprintf(h, "N %v %.12g %d %d\n", n.Set, n.Expected, n.Count, n.N)
	}
	for _, r := range res.Rules {
		fmt.Fprintf(h, "R %v %v %.12g %.12g %.12g\n", r.Antecedent, r.Consequent, r.RI, r.Expected, r.Actual)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// mineOptions are the options negmined builds from its flags (Cumulate
// stage 1, Improved, backend auto) with one counting worker per CPU.
func mineOptions(minSup, minRI float64, maxK int) negative.Options {
	opt := negative.Options{
		MinSupport: minSup,
		MinRI:      minRI,
		Algorithm:  negative.Improved,
		Gen:        gen.Options{Algorithm: gen.Cumulate, MaxK: maxK},
	}
	opt.Count.Parallelism = runtime.NumCPU()
	opt.Gen.Count.Parallelism = runtime.NumCPU()
	return opt
}

// peakRSSMiB reads VmHWM, the resident-set high-water mark, of a process.
func peakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
