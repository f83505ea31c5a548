package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"negmine/internal/metrics"
	"negmine/internal/ruleframe"
)

// This file parses and checks the requests of /rules, /score and /ingest,
// once for negmined's handlers and negrouter's relay alike, so a request
// either daemon refuses gets the same status and message from both.

// RequestError is a request its endpoint's parse refused: the status and
// the message both daemons answer it with.
type RequestError struct {
	Status int
	Msg    string
}

func (e *RequestError) Error() string { return e.Msg }

func badRequest(format string, args ...any) error {
	return &RequestError{Status: http.StatusBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// bodyError is the RequestError for a body that could not be read or
// decoded: 413 for one over the bound, else 400.
func bodyError(err error) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return &RequestError{Status: http.StatusRequestEntityTooLarge, Msg: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
	}
	return badRequest("bad request body: %v", err)
}

// WriteRequestError answers a request whose parse failed with err.
func WriteRequestError(w http.ResponseWriter, err error) {
	e := &RequestError{Status: http.StatusBadRequest, Msg: err.Error()}
	errors.As(err, &e)
	metrics.WriteError(w, e.Status, "%s", e.Msg)
}

// RulesQuery is a GET /rules request.
type RulesQuery struct {
	Item  string
	MinRI float64
	Limit int // 0: every rule
}

// ParseRulesQuery parses and checks a /rules request: GET, a non-empty
// item, a finite minri, a limit ≥ 0, and a query string that can stand in
// a request line as it is (no space, no control byte), so a relay can
// forward it unchanged.
func ParseRulesQuery(r *http.Request) (RulesQuery, error) {
	if r.Method != http.MethodGet {
		return RulesQuery{}, &RequestError{Status: http.StatusMethodNotAllowed, Msg: "use GET /rules?item=NAME"}
	}
	q := r.URL.Query()
	rq := RulesQuery{Item: q.Get("item")}
	if rq.Item == "" {
		return rq, badRequest("missing required query parameter: item")
	}
	if v := q.Get("minri"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return rq, badRequest("bad minri %q: %v", v, err)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return rq, badRequest("bad minri %q: not a finite number", v)
		}
		rq.MinRI = f
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return rq, badRequest("bad limit %q", v)
		}
		rq.Limit = n
	}
	for i := 0; i < len(r.URL.RawQuery); i++ {
		if c := r.URL.RawQuery[i]; c <= ' ' || c == 0x7f {
			return rq, badRequest("bad query %q", r.URL.RawQuery)
		}
	}
	return rq, nil
}

// ScoreRequest is the POST /score request body.
type ScoreRequest struct {
	Basket []string `json:"basket"`
	MinRI  float64  `json:"minRI,omitempty"` // per-request threshold
	Limit  int      `json:"limit,omitempty"` // 0: every match
}

// DecodeScore reads and checks a /score request: POST, a body that
// encoding/json's Decoder decodes into a ScoreRequest with unknown fields
// refused, a basket of at least one item, a limit ≥ 0. It returns the
// request and the body up to the end of its JSON value, which a relay
// forwards as the client sent it.
func DecodeScore(r *http.Request) (ScoreRequest, []byte, error) {
	req, body, end, err := decodeBody(r, `use POST /score with {"basket": [...]}`, scanScore)
	switch {
	case err != nil:
	case len(req.Basket) == 0:
		err = badRequest("basket must contain at least one item")
	case req.Limit < 0:
		err = badRequest("bad limit %d", req.Limit)
	}
	return req, body[:end], err
}

// decodeBody reads a POST request's body once, sized by r.ContentLength,
// and decodes it with scan, or, when scan does not take it, with
// encoding/json's Decoder with unknown fields refused. Anything but
// whitespace after the JSON value is refused too. It returns the value, the
// body and where its JSON value ends. usage is what a request with another
// method is told.
//
// scan reads the body with ruleframe's lexer and no reflection: strings are
// substrings of one copy of the body (or, escaped, copies of their own) and
// lists are carved from slabs, so a body costs the same few allocations
// whatever it holds. A body the lexer does not take — a key in another case
// or repeated, an unknown field, a null, invalid UTF-8, a lone surrogate, a
// number the field's type cannot hold, trailing bytes, any error — is left
// to encoding/json.
func decodeBody[T any](r *http.Request, usage string, scan func(body []byte) (T, int, bool)) (T, []byte, int, error) {
	var v T
	if r.Method != http.MethodPost {
		return v, nil, 0, &RequestError{Status: http.StatusMethodNotAllowed, Msg: usage}
	}
	body, err := readBody(r.Body, r.ContentLength)
	if err != nil {
		return v, body, 0, bodyError(err)
	}
	v, end, ok := scan(body)
	if !ok {
		var zero T
		v = zero
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&v); err != nil {
			return v, body, 0, bodyError(err)
		}
		end = int(dec.InputOffset())
		if _, err := dec.Token(); err != io.EOF {
			return v, body, 0, badRequest("bad request body: trailing data after the JSON value")
		}
	}
	return v, body, end, nil
}

var scoreKeys = []string{"basket", "minRI", "limit"}

// scanScore decodes body with ruleframe's lexer, and reports whether the
// lexer took it and where its JSON value ends.
func scanScore(body []byte) (req ScoreRequest, end int, ok bool) {
	names := string(body)
	l := ruleframe.LexBytes(body)
	l.Object(scoreKeys, func(k int) {
		switch k {
		case 0:
			req.Basket = scanNames(&l, names, make([]string, 0, strings.Count(names[l.Offset():], `"`)/2))
		case 1:
			req.MinRI = l.Float()
		case 2:
			req.Limit = int(l.Int())
		}
	})
	end = l.Offset()
	return req, end, l.End()
}

// presizeBody bounds how much readBody allocates on the strength of an
// announced length alone.
const presizeBody = 1 << 20

// readBody reads r to its end into one buffer when size announces its
// length, trusting the announcement only up to presizeBody.
func readBody(r io.Reader, size int64) ([]byte, error) {
	var buf bytes.Buffer
	if size > 0 {
		buf.Grow(int(min(size, presizeBody)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// DecodeIngest reads and checks an /ingest request: POST, a body that
// encoding/json's Decoder decodes into an IngestBatch with unknown fields
// refused, at least one basket and no empty one, and a key and a seq ≥ 1
// together or neither. It returns the batch and the body up to the end of
// its JSON value, which a relay forwards. The key is a copy of its own: the
// dedup window keeps it, and must not keep the body.
func DecodeIngest(r *http.Request) (IngestBatch, []byte, error) {
	b, body, end, err := decodeBody(r, `use POST /ingest with {"baskets": [[...], ...]}`, scanIngest)
	if body = body[:end]; err != nil {
		return b, body, err
	}
	if len(b.Baskets) == 0 {
		return b, body, badRequest("baskets must contain at least one basket")
	}
	for i, basket := range b.Baskets {
		if len(basket) == 0 {
			return b, body, badRequest("basket %d is empty", i)
		}
	}
	if b.Key == "" && b.Seq != 0 {
		return b, body, badRequest("seq requires a key")
	}
	if b.Key != "" && b.Seq == 0 {
		return b, body, badRequest("keyed batches need seq >= 1")
	}
	return b, body, nil
}

var ingestKeys = []string{"baskets", "key", "seq"}

// scanIngest decodes body with ruleframe's lexer, and reports where its
// JSON value ends and whether the lexer took it.
func scanIngest(body []byte) (IngestBatch, int, bool) {
	names := string(body)
	l := ruleframe.LexBytes(body)
	var b IngestBatch
	l.Object(ingestKeys, func(k int) {
		switch k {
		case 0:
			b.Baskets = scanBaskets(&l, names)
		case 1:
			key, _ := l.String()
			b.Key = string(key)
		case 2:
			b.Seq = l.Uint()
		}
	})
	end := l.Offset()
	return b, end, l.End()
}

// scanBaskets reads the array of baskets, carved from one slab of names. A
// name takes two quotes and a basket an opening bracket, so counting those
// in the rest of the body sizes the slab and the basket list once; neither
// grows.
func scanBaskets(l *ruleframe.Lexer, names string) [][]string {
	rest := names[l.Offset():]
	slab := make([]string, 0, strings.Count(rest, `"`)/2)
	out := make([][]string, 0, strings.Count(rest, "["))
	l.Array(func() {
		start := len(slab)
		slab = scanNames(l, names, slab)
		out = append(out, slab[start:len(slab):len(slab)])
	})
	return out
}

// scanNames reads an array of strings onto slab. A string as it stands in
// the input is a substring of names, the copy of the body; one with an
// escape is a copy of its own.
func scanNames(l *ruleframe.Lexer, names string, slab []string) []string {
	l.Array(func() {
		tok, verbatim := l.String()
		if end := l.Offset() - 1; verbatim { // end is the closing quote
			slab = append(slab, names[end-len(tok):end])
		} else {
			slab = append(slab, string(tok))
		}
	})
	return slab
}
