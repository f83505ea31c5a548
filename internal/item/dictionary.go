package item

import "fmt"

// Dictionary maps human-readable item names to dense Item ids and back. It
// is the bridge between external data formats (basket files, taxonomy
// definitions) and the integer world the mining algorithms live in.
//
// A Dictionary is not safe for concurrent mutation; once fully populated it
// may be shared read-only across goroutines.
type Dictionary struct {
	names []string
	ids   map[string]Item
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{ids: make(map[string]Item)}
}

// Intern returns the id for name, assigning the next dense id if the name
// has not been seen before.
func (d *Dictionary) Intern(name string) Item {
	if id, ok := d.ids[name]; ok {
		return id
	}
	id := Item(len(d.names))
	d.names = append(d.names, name)
	d.ids[name] = id
	return id
}

// Lookup returns the id for name and whether it exists.
func (d *Dictionary) Lookup(name string) (Item, bool) {
	id, ok := d.ids[name]
	return id, ok
}

// Name returns the name for id, or a synthetic "item<id>" string for ids the
// dictionary has never seen (useful when mining anonymous integer data).
func (d *Dictionary) Name(id Item) string {
	if id >= 0 && int(id) < len(d.names) {
		return d.names[id]
	}
	return fmt.Sprintf("item%d", id)
}

// Len returns the number of interned names.
func (d *Dictionary) Len() int { return len(d.names) }

// InternSet interns every name and returns the resulting itemset.
func (d *Dictionary) InternSet(names ...string) Itemset {
	items := make([]Item, len(names))
	for i, n := range names {
		items[i] = d.Intern(n)
	}
	return New(items...)
}
