// Package checkpoint implements the crash-safe journal that lets a
// long-running bulk GCD scan survive interruption: the engine appends one
// JSONL record per completed work unit (an all-pairs block or a hybrid
// cell), and a resumed run reloads the journal, verifies that it belongs
// to the same corpus and configuration via a fingerprint, and skips the
// recorded units while merging their findings.
//
// Journal format (one JSON value per line):
//
//	{"v":1,"engine":"allpairs","fingerprint":"<sha256 hex>","units":N,"total_pairs":P}
//	{"unit":3,"pairs":2016,"factors":[{"i":1,"j":5,"p":"<hex>"}]}
//	{"unit":0,"pairs":2016,"bad":[{"i":2,"j":9,"err":"..."}]}
//	...
//
// Each record line is written with a single write call after its unit
// fully completes, so a unit's done-ness and its findings are atomic: a
// crash can at worst tear the final line, which Load ignores (the unit is
// simply recomputed). Appending to a journal whose last line is torn is
// safe too: the writer starts on a fresh line, and the torn fragment is
// skipped on the next load.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
)

// Version is the journal format version written into headers.
const Version = 1

// Header identifies the run a journal belongs to. Fingerprint binds the
// corpus and every configuration knob that changes the unit decomposition
// or the findings; the engines compute it (see bulk.JournalHeader).
type Header struct {
	V           int    `json:"v"`
	Engine      string `json:"engine"`
	Fingerprint string `json:"fingerprint"`
	// Units is the number of work units the run is divided into. In a
	// growable journal (Grow set) it is only the count at creation time:
	// records beyond it are accepted, because an append-only corpus keeps
	// creating new units after the header was written.
	Units int `json:"units"`
	// TotalPairs is the number of pair GCDs of the full run.
	TotalPairs int64 `json:"total_pairs"`
	// Grow marks an append-only journal over a growing corpus: the
	// Fingerprint is a prefix hash chain seed (see Chain) rather than a
	// whole-corpus digest, so a corpus that has grown since the journal
	// was written still verifies — the historical prefix is bound
	// record-by-record through Record.Chain instead of all-at-once.
	Grow bool `json:"grow,omitempty"`
}

// Factor is one journaled finding: gcd(n_I, n_J) = P (hex) > 1.
type Factor struct {
	I int    `json:"i"`
	J int    `json:"j"`
	P string `json:"p"`
}

// BadPair is one journaled quarantined pair (the GCD kernel panicked).
type BadPair struct {
	I   int    `json:"i"`
	J   int    `json:"j"`
	Err string `json:"err"`
}

// Record reports one fully completed work unit.
type Record struct {
	Unit    int       `json:"unit"`
	Pairs   int64     `json:"pairs"`
	Factors []Factor  `json:"factors,omitempty"`
	Bad     []BadPair `json:"bad,omitempty"`
	// Chain, in growable journals, is the prefix hash chain value after
	// the corpus entry this record covers (Chain.Sum after Extend number
	// Unit). A resumed run recomputes the chain over its corpus and
	// rejects any record whose Chain disagrees — so a journal verifies
	// against a corpus that has *grown* (every record matches a prefix
	// entry) but not against one that was edited or reordered.
	Chain string `json:"chain,omitempty"`
}

// Writer appends records to a journal file. It is safe for concurrent use
// by the engine's workers.
type Writer struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	began bool
	// prior is the header already present in the file when appending to an
	// existing journal; Begin verifies against it instead of rewriting.
	prior *Header
}

// Create opens a fresh journal at path, truncating any existing file. The
// header is written by the engine via Begin.
func Create(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Writer{f: f, path: path}, nil
}

// OpenAppend opens path for appending, keeping existing records. If the
// file already holds a header, Begin verifies the engine's header against
// it; a missing file behaves like Create. If the existing content does not
// end with a newline (torn final line from a crash), one is inserted so
// new records start cleanly.
func OpenAppend(path string) (*Writer, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	w := &Writer{f: f, path: path}
	if len(data) > 0 {
		if data[len(data)-1] != '\n' {
			if _, err := f.Write([]byte("\n")); err != nil {
				f.Close()
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
		}
		w.prior = firstHeader(data)
	}
	return w, nil
}

// Path returns the journal's file path.
func (w *Writer) Path() string { return w.path }

// Begin records the run's header: on a fresh journal it is written as the
// first line; when appending to an existing journal it must match the
// stored header exactly.
func (w *Writer) Begin(h Header) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.began {
		return fmt.Errorf("checkpoint: Begin called twice")
	}
	h.V = Version
	if w.prior != nil {
		if *w.prior != h {
			return fmt.Errorf("checkpoint: journal %s belongs to a different run (fingerprint %.12s..., want %.12s...)",
				w.path, w.prior.Fingerprint, h.Fingerprint)
		}
		w.began = true
		return nil
	}
	if err := w.writeLine(h); err != nil {
		return err
	}
	w.began = true
	return nil
}

// Append journals one completed unit as a single write.
func (w *Writer) Append(rec Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.began {
		return fmt.Errorf("checkpoint: Append before Begin")
	}
	return w.writeLine(rec)
}

func (w *Writer) writeLine(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	line = append(line, '\n')
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Sync flushes the journal to stable storage.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Sync()
}

// Close syncs and closes the journal file.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// State is a loaded journal.
type State struct {
	Header Header
	// Done maps unit index to its record; when a unit appears more than
	// once the first occurrence wins.
	Done map[int]Record
	// Ignored counts unparsable lines that were skipped (a torn final line
	// after a crash is the normal cause), and old quarantine records (see
	// parse).
	Ignored int
}

// Load reads and parses the journal at path. Unparsable lines are skipped
// (counted in Ignored): a skipped record only means its unit is recomputed.
func Load(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	hdr, done, ignored := parse(data)
	if hdr == nil {
		return nil, fmt.Errorf("checkpoint: %s has no valid journal header", path)
	}
	return &State{Header: *hdr, Done: done, Ignored: ignored}, nil
}

// parse scans JSONL content: the first parsable header line, then records.
//
// A journal written by the retired multi-process (fleet) mode may hold
// quarantine records, {"unit":u,"pairs":0,"bad_cell":"..."}: a unit
// that was given up, not completed. Such a line counts as ignored, like
// a torn one, so a resumed run recomputes the unit instead of loading it
// as done with no findings.
func parse(data []byte) (hdr *Header, done map[int]Record, ignored int) {
	done = map[int]Record{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if hdr == nil {
			if hdr = parseHeader(line); hdr == nil {
				ignored++
			}
			continue
		}
		var rec struct {
			Record
			BadCell string `json:"bad_cell"`
		}
		if err := json.Unmarshal(line, &rec); err != nil || rec.BadCell != "" || rec.Unit < 0 || (rec.Unit >= hdr.Units && !hdr.Grow) {
			ignored++
			continue
		}
		if _, dup := done[rec.Unit]; !dup {
			done[rec.Unit] = rec.Record
		}
	}
	return hdr, done, ignored
}

// parseHeader returns line as a header, or nil unless it parses as one
// with a fingerprint and at least one unit.
func parseHeader(line []byte) *Header {
	var h Header
	if err := json.Unmarshal(line, &h); err != nil || h.Fingerprint == "" || h.Units <= 0 {
		return nil
	}
	return &h
}

// firstHeader returns the header parse would find in data, the first
// line parseHeader accepts, without parsing the records after it.
func firstHeader(data []byte) *Header {
	for len(data) > 0 {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte("\n"))
		if h := parseHeader(bytes.TrimSpace(line)); h != nil {
			return h
		}
	}
	return nil
}

// Verify checks that the journal belongs to the run described by h.
func (s *State) Verify(h Header) error {
	h.V = Version
	if s.Header != h {
		return fmt.Errorf("checkpoint: journal belongs to a different run: engine %q units %d fingerprint %.12s..., want engine %q units %d fingerprint %.12s...",
			s.Header.Engine, s.Header.Units, s.Header.Fingerprint, h.Engine, h.Units, h.Fingerprint)
	}
	return nil
}

// Pairs sums the pair counts of all recorded units.
func (s *State) Pairs() int64 {
	var n int64
	for _, rec := range s.Done {
		n += rec.Pairs
	}
	return n
}

// Chain is a prefix hash chain over an append-only corpus:
//
//	h_0 = SHA256(seed)
//	h_i = SHA256(h_{i-1} || entry_i)
//
// A growable journal stores h_i (hex) in each record's Chain field. A
// resumed run replays its corpus through a fresh Chain and compares
// sums record by record: any prefix of the grown corpus verifies, while
// an edited, reordered, or truncated corpus diverges at the first
// changed entry. Chain is not safe for concurrent use; the owner
// extends it under its own corpus lock.
type Chain struct {
	sum [sha256.Size]byte
}

// NewChain starts a chain from seed (any stable run identifier; the
// growable journal's Header.Fingerprint by convention).
func NewChain(seed string) *Chain {
	c := &Chain{}
	c.sum = sha256.Sum256([]byte(seed))
	return c
}

// Extend absorbs the next corpus entry and returns the new chain value.
func (c *Chain) Extend(entry []byte) string {
	h := sha256.New()
	h.Write(c.sum[:])
	h.Write(entry)
	h.Sum(c.sum[:0])
	return c.Sum()
}

// Sum returns the current chain value in hex.
func (c *Chain) Sum() string { return hex.EncodeToString(c.sum[:]) }

// VerifyChain checks a loaded growable journal against the prefix
// chain of the current run's corpus: chain[i] is the value Chain.Extend
// returned for entry i, starting from the journal's seed. It returns the
// records whose Chain matches, keyed by unit; records beyond the corpus
// (or with a mismatched chain value) are dropped, which means they are
// recomputed rather than trusted. An error is returned only if the
// journal is not a growable journal.
func (s *State) VerifyChain(chain []string) (map[int]Record, error) {
	if !s.Header.Grow {
		return nil, fmt.Errorf("checkpoint: journal is not growable (header lacks grow flag)")
	}
	ok := make(map[int]Record, len(s.Done))
	for i, want := range chain {
		if rec, found := s.Done[i]; found && rec.Chain == want {
			ok[i] = rec
		}
	}
	return ok, nil
}

// Compact rewrites the journal at path to its canonical minimal form:
// the header followed by one record per unit, in unit order. Long
// resumed scans otherwise replay an unbounded append-only file full of
// torn fragments and duplicate records (duplicate completes, repeated
// resumes); compaction drops everything Load would ignore anyway. It
// returns the number of journal lines dropped.
//
// Compaction is crash-safe: the compacted journal is written to a
// temporary sibling file, synced, and renamed over path, so a crash at
// any point leaves either the original journal or the complete
// compacted one — never a torn mix. A stale temporary file from an
// earlier interrupted compaction is truncated and reused.
func Compact(path string) (dropped int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: compact: %w", err)
	}
	hdr, done, _ := parse(data)
	if hdr == nil {
		return 0, fmt.Errorf("checkpoint: compact: %s has no valid journal header", path)
	}
	lines := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) > 0 {
			lines++
		}
	}
	dropped = lines - 1 - len(done)

	tmp := path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: compact: %w", err)
	}
	w := &Writer{f: f, path: tmp}
	if err := w.Begin(*hdr); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	units := make([]int, 0, len(done))
	for u := range done {
		units = append(units, u)
	}
	sort.Ints(units)
	for _, u := range units {
		if err := w.Append(done[u]); err != nil {
			f.Close()
			os.Remove(tmp)
			return 0, err
		}
	}
	if err := w.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("checkpoint: compact: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("checkpoint: compact: %w", err)
	}
	return dropped, nil
}
