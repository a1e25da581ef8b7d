package checkpoint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func header() Header {
	return Header{V: Version, Engine: "allpairs", Fingerprint: "abc123", Units: 4, TotalPairs: 100}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Unit: 0}); err == nil {
		t.Fatal("Append before Begin accepted")
	}
	if err := w.Begin(header()); err != nil {
		t.Fatal(err)
	}
	if err := w.Begin(header()); err == nil {
		t.Fatal("second Begin accepted")
	}
	recs := []Record{
		{Unit: 0, Pairs: 10, Factors: []Factor{{I: 1, J: 2, P: "ff"}}},
		{Unit: 2, Pairs: 30, Bad: []BadPair{{I: 3, J: 4, Err: "boom"}}},
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal("Close not idempotent:", err)
	}

	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Header != header() {
		t.Fatalf("header = %+v", st.Header)
	}
	if err := st.Verify(header()); err != nil {
		t.Fatal(err)
	}
	if len(st.Done) != 2 || st.Ignored != 0 {
		t.Fatalf("done %d ignored %d", len(st.Done), st.Ignored)
	}
	if got := st.Done[0].Factors[0]; got != (Factor{I: 1, J: 2, P: "ff"}) {
		t.Fatalf("factor = %+v", got)
	}
	if got := st.Done[2].Bad[0]; got != (BadPair{I: 3, J: 4, Err: "boom"}) {
		t.Fatalf("bad = %+v", got)
	}
	if st.Pairs() != 40 {
		t.Fatalf("Pairs() = %d", st.Pairs())
	}
}

func TestVerifyMismatch(t *testing.T) {
	st := &State{Header: header()}
	h := header()
	h.Fingerprint = "different"
	if err := st.Verify(h); err == nil {
		t.Error("fingerprint mismatch accepted")
	}
	h = header()
	h.Units = 5
	if err := st.Verify(h); err == nil {
		t.Error("unit-count mismatch accepted")
	}
	// Verify normalizes V itself: callers build headers without it.
	h = header()
	h.V = 0
	if err := st.Verify(h); err != nil {
		t.Errorf("version auto-fill failed: %v", err)
	}
}

// TestTornTrailingLine: a crash mid-write leaves a torn final line; Load
// must skip it and OpenAppend must start cleanly on a fresh line.
func TestTornTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Begin(header()); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Unit: 1, Pairs: 7}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn write.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"unit":2,"pa`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Done) != 1 || st.Ignored != 1 {
		t.Fatalf("done %d ignored %d, want 1/1", len(st.Done), st.Ignored)
	}

	// Appending after the torn line must not corrupt the next record.
	w2, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Begin(header()); err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(Record{Unit: 3, Pairs: 9}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Done) != 2 || st.Done[3].Pairs != 9 {
		t.Fatalf("after append: %+v", st.Done)
	}
}

// TestOpenAppendHeaderMismatch: appending under a different run's header
// must fail at Begin, before any record is written.
func TestOpenAppendHeaderMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Begin(header()); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	h := header()
	h.Fingerprint = "other"
	if err := w2.Begin(h); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("foreign header accepted: %v", err)
	}
}

// TestFirstHeaderMatchesParse: OpenAppend parses only up to the header,
// so firstHeader must find the header parse finds, past blank, torn and
// header-like lines that fail the header rule, and the first of two.
func TestFirstHeaderMatchesParse(t *testing.T) {
	line := func(fp string, units int) string {
		b, err := json.Marshal(Header{V: Version, Engine: "allpairs", Fingerprint: fp, Units: units})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, data := range []string{
		"",
		"\n\n",
		"not json\n",
		line("a", 4) + "\n" + `{"unit":0,"pairs":1}` + "\n",
		" \n{\"v\":1,\"fingerprint\":\"torn\n" + line("", 4) + "\n" + line("b", 0) + "\n  " + line("c", 2) + "  \n" + line("d", 3) + "\n",
		line("e", 1),
	} {
		want, _, _ := parse([]byte(data))
		got := firstHeader([]byte(data))
		if (got == nil) != (want == nil) || (got != nil && *got != *want) {
			t.Errorf("%q: firstHeader %+v, parse %+v", data, got, want)
		}
	}
}

// TestOpenAppendMissingFile behaves like Create.
func TestOpenAppendMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "new.jsonl")
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Begin(header()); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Unit: 0, Pairs: 1}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Done) != 1 {
		t.Fatalf("done = %+v", st.Done)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage.jsonl")
	if err := os.WriteFile(path, []byte("not json\nstill not\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("headerless journal accepted")
	}
	if _, err := Load(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestDuplicateAndOutOfRangeRecords: first occurrence wins; units outside
// the header's range are ignored rather than trusted.
func TestDuplicateAndOutOfRangeRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	content := `{"v":1,"engine":"allpairs","fingerprint":"abc123","units":4,"total_pairs":100}
{"unit":1,"pairs":5}
{"unit":1,"pairs":50}
{"unit":9,"pairs":1}
{"unit":-1,"pairs":1}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Done) != 1 || st.Done[1].Pairs != 5 {
		t.Fatalf("done = %+v", st.Done)
	}
	if st.Ignored != 2 {
		t.Fatalf("ignored = %d, want 2", st.Ignored)
	}
}

func compactJournal(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "compact.jsonl")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Begin(header()); err != nil {
		t.Fatal(err)
	}
	// Duplicate records (re-leased completes), a BadCell quarantine, and a
	// torn final line: everything a long fleet run accumulates.
	recs := []Record{
		{Unit: 0, Pairs: 10, Factors: []Factor{{I: 1, J: 2, P: "ff"}}},
		{Unit: 1, Pairs: 20},
		{Unit: 0, Pairs: 10, Factors: []Factor{{I: 1, J: 2, P: "ff"}}},
		{Unit: 1, Pairs: 20},
		{Unit: 2, BadCell: "failed on 3 workers"},
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, []byte(`{"unit":3,"pairs":4`)...) // torn crash fragment
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompact(t *testing.T) {
	path := compactJournal(t)
	before, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if before.Ignored != 1 {
		t.Fatalf("Ignored = %d, want the torn fragment", before.Ignored)
	}
	dropped, err := Compact(path)
	if err != nil {
		t.Fatal(err)
	}
	// 2 duplicate records + 1 torn fragment.
	if dropped != 3 {
		t.Fatalf("dropped = %d, want 3", dropped)
	}
	after, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Header != before.Header {
		t.Fatalf("header changed: %+v", after.Header)
	}
	if len(after.Done) != len(before.Done) || after.Ignored != 0 {
		t.Fatalf("done %d ignored %d after compaction", len(after.Done), after.Ignored)
	}
	for u, rec := range before.Done {
		got := after.Done[u]
		if got.Pairs != rec.Pairs || len(got.Factors) != len(rec.Factors) || got.BadCell != rec.BadCell {
			t.Fatalf("unit %d: %+v != %+v", u, got, rec)
		}
	}
	if q := after.Quarantined(); len(q) != 1 || q[2] != "failed on 3 workers" {
		t.Fatalf("Quarantined() = %v", q)
	}
	// The compacted journal accepts appends like any other.
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Begin(header()); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Unit: 3, Pairs: 40}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Done) != 4 {
		t.Fatalf("done = %d after post-compaction append", len(final.Done))
	}
}

// TestCompactTornWrite simulates a crash during a previous compaction: a
// stale, torn temporary file sits next to the journal. The original
// journal must stay fully readable, and a fresh Compact must succeed,
// truncating the stale temporary.
func TestCompactTornWrite(t *testing.T) {
	path := compactJournal(t)
	want, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// The interrupted compaction tore mid-record and never renamed.
	torn := `{"v":1,"engine":"allpairs","fingerprint":"abc123","units":4,"total_pairs":100}` + "\n" + `{"unit":0,"pa`
	if err := os.WriteFile(path+".compact", []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Done) != len(want.Done) {
		t.Fatalf("journal damaged by torn compaction temp: %d done, want %d", len(got.Done), len(want.Done))
	}
	if _, err := Compact(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived compaction: %v", err)
	}
	after, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Done) != len(want.Done) || after.Ignored != 0 {
		t.Fatalf("done %d ignored %d after recovery compaction", len(after.Done), after.Ignored)
	}
}

// chainOf returns the prefix chain values of entries from seed, the
// values a resumed run computes as it replays its corpus.
func chainOf(seed string, entries [][]byte) []string {
	c := NewChain(seed)
	out := make([]string, len(entries))
	for i, entry := range entries {
		out[i] = c.Extend(entry)
	}
	return out
}

// TestGrowChain: a growable journal over an append-only corpus must
// resume after the corpus has grown (records bind to the prefix chain,
// not a whole-corpus digest), survive a torn final append, and reject
// records whose chain disagrees with the replayed corpus.
func TestGrowChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grow.jsonl")
	hdr := Header{V: Version, Engine: "registry", Fingerprint: "seed-1", Units: 1, Grow: true}
	corpus := [][]byte{[]byte("n0"), []byte("n1"), []byte("n2")}

	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Begin(hdr); err != nil {
		t.Fatal(err)
	}
	c := NewChain(hdr.Fingerprint)
	for i, entry := range corpus {
		if err := w.Append(Record{Unit: i, Pairs: 1, Chain: c.Extend(entry)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash tearing the final append.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"unit":3,"chain":"dead`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Resume with a grown corpus: the old records must all verify, and
	// the torn fragment is ignored, not trusted.
	grown := append(append([][]byte{}, corpus...), []byte("n3"), []byte("n4"))
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ignored != 1 {
		t.Fatalf("Ignored = %d, want the torn fragment", st.Ignored)
	}
	ok, err := st.VerifyChain(chainOf(hdr.Fingerprint, grown))
	if err != nil {
		t.Fatal(err)
	}
	if len(ok) != len(corpus) {
		t.Fatalf("verified %d records, want %d", len(ok), len(corpus))
	}

	// Appending after the torn line under the same constant header works;
	// units beyond the creation-time count are accepted because Grow is set.
	w2, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Begin(hdr); err != nil {
		t.Fatal(err)
	}
	c2 := NewChain(hdr.Fingerprint)
	for _, entry := range corpus {
		c2.Extend(entry)
	}
	for i := len(corpus); i < len(grown); i++ {
		if err := w2.Append(Record{Unit: i, Pairs: 1, Chain: c2.Extend(grown[i])}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	ok, err = st.VerifyChain(chainOf(hdr.Fingerprint, grown))
	if err != nil {
		t.Fatal(err)
	}
	if len(ok) != len(grown) {
		t.Fatalf("verified %d records after growth, want %d", len(ok), len(grown))
	}

	// An edited corpus diverges at the first changed entry: everything
	// from there on is recomputed, not trusted.
	edited := append([][]byte{}, grown...)
	edited[1] = []byte("tampered")
	ok, err = st.VerifyChain(chainOf(hdr.Fingerprint, edited))
	if err != nil {
		t.Fatal(err)
	}
	if len(ok) != 1 {
		t.Fatalf("verified %d records over edited corpus, want 1 (unit 0 only)", len(ok))
	}
	if _, hasUnit0 := ok[0]; !hasUnit0 {
		t.Fatal("unit 0 (unedited prefix) should still verify")
	}

	// A non-growable journal refuses chain verification outright.
	fixed := &State{Header: header()}
	if _, err := fixed.VerifyChain(nil); err == nil {
		t.Fatal("VerifyChain accepted a non-growable journal")
	}
}

func TestCompactErrors(t *testing.T) {
	if _, err := Compact(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Fatal("Compact accepted a missing journal")
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Compact(bad); err == nil || !strings.Contains(err.Error(), "header") {
		t.Fatalf("Compact on headerless file: %v", err)
	}
}
