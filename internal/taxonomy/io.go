package taxonomy

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"negmine/internal/item"
)

// Parse reads a taxonomy in the library's text format: one edge per line as
// "parent child" (whitespace separated); a line with a single token declares
// a standalone node; '#' starts a comment; blank lines are ignored.
func Parse(r io.Reader) (*Taxonomy, error) {
	b := NewBuilder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		switch len(fields) {
		case 0:
			continue
		case 1:
			b.Node(fields[0])
		case 2:
			b.Link(fields[0], fields[1])
		default:
			return nil, fmt.Errorf("taxonomy: line %d: want 'parent child', got %d fields", lineNo, len(fields))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("taxonomy: reading: %w", err)
	}
	return b.Build()
}

// Write serializes t in the format Parse reads. Edges are emitted in child-id
// order; parentless isolated nodes are emitted as single tokens.
func (t *Taxonomy) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < t.Size(); i++ {
		id := item.Item(i)
		if p := t.Parent(id); p != item.None {
			if _, err := fmt.Fprintf(bw, "%s %s\n", t.Name(p), t.Name(id)); err != nil {
				return err
			}
		} else if len(t.Children(id)) == 0 {
			if _, err := fmt.Fprintln(bw, t.Name(id)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// String renders a compact multi-line tree view (roots first, children
// indented), useful in examples and debugging.
func (t *Taxonomy) String() string {
	var b strings.Builder
	var rec func(n item.Item, depth int)
	rec = func(n item.Item, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(t.Name(n))
		b.WriteByte('\n')
		ch := append([]item.Item(nil), t.Children(n)...)
		sort.Slice(ch, func(i, j int) bool { return t.Name(ch[i]) < t.Name(ch[j]) })
		for _, c := range ch {
			rec(c, depth+1)
		}
	}
	roots := append([]item.Item(nil), t.Roots()...)
	sort.Slice(roots, func(i, j int) bool { return t.Name(roots[i]) < t.Name(roots[j]) })
	for _, r := range roots {
		rec(r, 0)
	}
	return b.String()
}
