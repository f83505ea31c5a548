package txdb

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"negmine/internal/item"
)

// ReadBaskets parses the human-friendly basket format: one transaction per
// line, items whitespace-separated, '#' comments, blank lines skipped.
// Item tokens are interned through dict (numeric-looking tokens are still
// treated as names, keeping the format uniform). TIDs are assigned
// sequentially from 1.
func ReadBaskets(r io.Reader, dict *item.Dictionary) (*MemDB, error) {
	m := &MemDB{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	tid := int64(0)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		tid++
		m.Append(Transaction{TID: tid, Items: dict.InternSet(fields...)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("txdb: baskets line %d: %w", lineNo, err)
	}
	return m, nil
}

// ReadBasketsInts parses baskets of raw integer item ids (the common format
// of public itemset-mining datasets): one transaction per line, ids
// whitespace-separated.
func ReadBasketsInts(r io.Reader) (*MemDB, error) {
	m := &MemDB{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	tid := int64(0)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		items := make([]item.Item, len(fields))
		for j, f := range fields {
			v, err := strconv.ParseInt(f, 10, 32)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("txdb: baskets line %d: bad item id %q", lineNo, f)
			}
			items[j] = item.Item(v)
		}
		tid++
		m.Append(Transaction{TID: tid, Items: item.New(items...)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("txdb: baskets line %d: %w", lineNo, err)
	}
	return m, nil
}

// WriteBaskets writes db in the named basket format using dict for names.
func WriteBaskets(w io.Writer, db DB, dict *item.Dictionary) error {
	bw := bufio.NewWriter(w)
	err := db.Scan(func(tx Transaction) error {
		for i, it := range tx.Items {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(dict.Name(it)); err != nil {
				return err
			}
		}
		return bw.WriteByte('\n')
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
