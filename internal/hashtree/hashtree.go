// Package hashtree implements the hash tree of Agrawal & Srikant ("Fast
// Algorithms for Mining Association Rules", VLDB 1994) used to count, for
// each transaction, which of a (possibly very large) set of equal-size
// candidate itemsets it contains.
//
// Interior nodes hash on the item at their depth; leaves hold candidate
// indices. A Tree is immutable after Build and safe for concurrent use; all
// mutable counting state lives in per-worker Counters, which are merged
// after a parallel scan.
package hashtree

import (
	"fmt"

	"negmine/internal/item"
)

// branch is the fan-out of interior nodes.
const branch = 16

// DefaultMaxLeaf is the leaf capacity at which a leaf splits into an
// interior node.
const DefaultMaxLeaf = 24

// Tree indexes a set of candidate k-itemsets for fast subset counting.
type Tree struct {
	k     int
	cands []item.Itemset
	root  *node
}

type node struct {
	// Exactly one of leaf / kids is used.
	leaf []int32 // candidate indices
	kids *[branch]*node
}

func hashItem(x item.Item) int { return int(uint32(x)*2654435761) % branch }

// Build constructs a tree over candidates, all of which must have the same
// length k ≥ 1. maxLeaf ≤ 0 selects DefaultMaxLeaf. Candidates are not
// copied; the caller must not mutate them afterwards.
func Build(cands []item.Itemset, maxLeaf int) (*Tree, error) {
	if len(cands) == 0 {
		return &Tree{root: &node{}}, nil
	}
	if maxLeaf <= 0 {
		maxLeaf = DefaultMaxLeaf
	}
	k := cands[0].Len()
	if k < 1 {
		return nil, fmt.Errorf("hashtree: empty candidate itemset")
	}
	t := &Tree{k: k, cands: cands, root: &node{}}
	for i, c := range cands {
		if c.Len() != k {
			return nil, fmt.Errorf("hashtree: candidate %d has length %d, want %d", i, c.Len(), k)
		}
		t.insert(t.root, int32(i), 0, maxLeaf)
	}
	return t, nil
}

func (t *Tree) insert(n *node, idx int32, depth, maxLeaf int) {
	if n.kids != nil {
		c := t.cands[idx]
		h := hashItem(c[depth])
		child := n.kids[h]
		if child == nil {
			child = &node{}
			n.kids[h] = child
		}
		t.insert(child, idx, depth+1, maxLeaf)
		return
	}
	n.leaf = append(n.leaf, idx)
	// Split an overfull leaf unless all k items have been hashed already.
	if len(n.leaf) > maxLeaf && depth < t.k {
		old := n.leaf
		n.leaf = nil
		n.kids = new([branch]*node)
		for _, i := range old {
			t.insert(n, i, depth, maxLeaf)
		}
	}
}

// EstimateBytes estimates the resident size of a tree over n candidates
// probed by `counters` per-worker Counters — the number a memory budget
// reserves before Build. Candidate itemsets themselves are caller-owned and
// not charged. The tree costs a leaf index entry per candidate plus interior
// nodes amortized over DefaultMaxLeaf-sized leaves; each counter keeps a
// count and a last-seen sequence number per candidate.
func EstimateBytes(n, counters int) int64 {
	if n <= 0 {
		return 0
	}
	if counters < 1 {
		counters = 1
	}
	const (
		perCandTree    = 4 + 24 // leaf slot + amortized node overhead
		perCandCounter = 8 + 8  // counts + last entries
	)
	return int64(n) * (perCandTree + int64(counters)*perCandCounter)
}

// Counter accumulates per-candidate support counts against one Tree. It is
// not safe for concurrent use; run one Counter per goroutine and Merge.
type Counter struct {
	tree   *Tree
	counts []int
	last   []int64 // sequence number of the last transaction that touched a candidate
	seq    int64
	stack  []frame // reusable traversal stack: Add allocates nothing at steady state
}

// frame is one suspended step of the tree walk: probe n with transaction
// items from position start at hash depth depth.
type frame struct {
	n            *node
	start, depth int32
}

// NewCounter returns a zeroed counter for t.
func (t *Tree) NewCounter() *Counter {
	return &Counter{
		tree:   t,
		counts: make([]int, len(t.cands)),
		last:   make([]int64, len(t.cands)),
		stack:  make([]frame, 0, 64),
	}
}

// Add counts every candidate that is a subset of tx. tx must be sorted.
func (c *Counter) Add(tx item.Itemset) {
	if c.tree.k == 0 || tx.Len() < c.tree.k {
		return
	}
	c.seq++
	c.visit(tx)
}

// visit walks the tree iteratively with the counter's reusable stack (the
// recursive form allocated a call frame per level on the hot path). Node
// visit order differs from the recursion but counts do not depend on it:
// the last/seq marks examine each candidate at most once per transaction.
func (c *Counter) visit(tx item.Itemset) {
	k := c.tree.k
	stack := append(c.stack[:0], frame{n: c.tree.root})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.n.kids == nil {
			for _, idx := range f.n.leaf {
				if c.last[idx] == c.seq {
					continue // already examined via another path this transaction
				}
				c.last[idx] = c.seq
				if c.tree.cands[idx].SubsetOf(tx) {
					c.counts[idx]++
				}
			}
			continue
		}
		// Try each remaining transaction item as the next hashed element; a
		// candidate needs k-depth more items, so stop when too few remain.
		for i := int(f.start); len(tx)-i >= k-int(f.depth); i++ {
			if child := f.n.kids[hashItem(tx[i])]; child != nil {
				stack = append(stack, frame{n: child, start: int32(i + 1), depth: f.depth + 1})
			}
		}
	}
	c.stack = stack[:0] // keep grown capacity for the next transaction
}

// Counts returns the full count vector (shared slice).
func (c *Counter) Counts() []int { return c.counts }

// Merge adds other's counts into c. Both must come from the same Tree.
func (c *Counter) Merge(other *Counter) {
	if other.tree != c.tree {
		panic("hashtree: merging counters from different trees")
	}
	for i, n := range other.counts {
		c.counts[i] += n
	}
}
