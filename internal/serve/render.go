package serve

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"negmine/internal/ruleframe"
)

// This file is the rendering half of the read path. A rule set is fixed
// once a snapshot is built, so each rule's JSON is rendered then — once, by
// ruleframe.AppendRule, the bytes encoding/json writes for a RuleJSON in a
// reply — into the fragment arena, and /rules and /score answer by
// concatenation: envelope prefix, fragments, tail (internal/ruleframe
// defines the layout). A router asks for the same bytes as a length-prefixed
// frame instead of a document (Accept: ruleframe.MediaType), so it can merge
// shards without parsing.

// buildFragments renders every rule of the arena into the fragment arena. A
// fragment is the indented rule object without ElemClose, so that /score can
// append "triggers" behind the last rule field. It panics on a rule whose RI
// or supports are NaN or ±Inf: JSON cannot carry one, no miner or report
// produces one, and a daemon recovers a panicking load into a failed reload
// that keeps the previous snapshot.
func (s *Snapshot) buildFragments() {
	n := s.Len()
	s.fragOff = make([]uint64, n+1)
	for id := 0; id < n; id++ {
		e := s.Entry(RuleID(id))
		for _, f := range [...]float64{e.RI, e.Expected, e.Actual} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				panic(fmt.Sprintf("serve: rule %d has no JSON form: json: unsupported value: %v", id, f))
			}
		}
		s.frag = ruleframe.AppendRule(s.frag, e.Antecedent, e.Consequent, e.RI, e.Expected, e.Actual)
		s.fragOff[id+1] = uint64(len(s.frag))
	}
	// The arena lives as long as the snapshot: drop the slack that append's
	// doubling left behind.
	s.frag = bytes.Clone(s.frag)
}

// renderedBytes is the footprint of the fragment arena, part of arenaBytes.
func (s *Snapshot) renderedBytes() int64 {
	return int64(len(s.frag)) + int64(len(s.fragOff))*8
}

// appendElem appends rule id as it stands in a reply's rule list. With
// score set it carries "triggers": each antecedent item mapped to the first
// basket item (basketIDs, in basket order, -1 for names the snapshot does
// not know) that is the item or a descendant of it. Antecedents are sorted
// by name, which is the key order encoding/json gives a map.
func (s *Snapshot) appendElem(dst []byte, id RuleID, score bool, basketIDs []int32) []byte {
	dst = append(dst, s.frag[s.fragOff[id]:s.fragOff[id+1]]...)
	if score {
		dst = append(dst, ",\n      \"triggers\": {"...)
		n := 0
		ante := s.sideIDs[s.off[2*id]:s.off[2*id+1]]
		for j, a := range ante {
			if j > 0 && a == ante[j-1] {
				continue // a repeated name is one map key
			}
			for _, b := range basketIDs {
				if b >= 0 && s.supportsID(b, a) {
					if n > 0 {
						dst = append(dst, ',')
					}
					dst = append(dst, "\n        "...)
					dst = ruleframe.AppendQuoted(dst, s.names[a])
					dst = append(dst, ": "...)
					dst = ruleframe.AppendQuoted(dst, s.names[b])
					n++
					break
				}
			}
		}
		if n > 0 {
			dst = append(dst, "\n      "...)
		}
		dst = append(dst, '}')
	}
	return append(dst, ruleframe.ElemClose...)
}

// appendSignature appends rule id's merge tie-break (the arena's sides are
// sorted, as the signature requires).
func (s *Snapshot) appendSignature(dst []byte, id RuleID) []byte {
	a, b, c := s.off[2*id], s.off[2*id+1], s.off[2*id+2]
	return ruleframe.AppendSignature(dst, s.sideNames[a:b], s.sideNames[b:c])
}

// renderScratch is the pooled per-request working set of the two read
// handlers; everything in it is overwritten by the next request.
type renderScratch struct {
	out       []byte // the reply body
	prefix    []byte
	sig, elem []byte   // one frame entry being assembled
	expanded  []string // /rules: item + ancestors
	ids       []RuleID // the rules the reply carries
	basketIDs []int32  // /score: the basket, interned
}

var renderPool = sync.Pool{New: func() any { return new(renderScratch) }}

// maxPooledReply keeps an occasional huge reply (limit=0 on a category)
// from pinning its buffer in the pool.
const maxPooledReply = 1 << 20

func putRenderScratch(sc *renderScratch) {
	if cap(sc.out) > maxPooledReply {
		sc.out = nil
	}
	renderPool.Put(sc)
}

// writeReply renders rules ids of snap behind sc.prefix — as the public
// document, or as a frame when the request asked for one — and sends it
// with one Write.
func writeReply(w http.ResponseWriter, r *http.Request, snap *Snapshot, sc *renderScratch, ids []RuleID, score bool) {
	out, ctype := sc.out[:0], "application/json"
	if r.Header.Get("Accept") == ruleframe.MediaType {
		ctype = ruleframe.MediaType
		out = ruleframe.AppendHeader(out, sc.prefix, len(ids))
		for _, id := range ids {
			sc.sig = snap.appendSignature(sc.sig[:0], id)
			sc.elem = snap.appendElem(sc.elem[:0], id, score, sc.basketIDs)
			out = ruleframe.AppendEntry(out, snap.ri[id], sc.sig, sc.elem)
		}
	} else {
		out = append(out, sc.prefix...)
		for i, id := range ids {
			out = ruleframe.AppendSep(out, i)
			out = snap.appendElem(out, id, score, sc.basketIDs)
		}
		out = ruleframe.AppendTail(out, len(ids), nil)
	}
	sc.out = out
	w.Header().Set("Content-Type", ctype)
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out) // a failed write is the client's disconnect
}
