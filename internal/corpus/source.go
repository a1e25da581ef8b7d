package corpus

// Source is the one ingestion path for every corpus consumer: the batch
// CLIs, the fleet worker, and the streaming registry all iterate the
// same way over either on-disk format (hex lines or PEM streams), so
// format detection, validation, and per-record skip reporting live in
// exactly one place.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/big"
	"strings"

	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/pemkeys"
)

// Validate reports why n cannot be an RSA modulus, or "" when it can.
// The strings double as skip/quarantine reasons, so every layer that
// classifies a bad modulus (strict readers, the engines' quarantine,
// the registry's malformed verdict) agrees on the wording.
func Validate(n *mpnat.Nat) string { return invalid(n.IsZero(), n.IsEven()) }

// ValidateBig is Validate for a math/big value (the registry's
// submissions arrive as big.Int).
func ValidateBig(n *big.Int) string { return invalid(n.Sign() == 0, n.Bit(0) == 0) }

func invalid(zero, even bool) string {
	switch {
	case zero:
		return "zero modulus"
	case even:
		return "even modulus (not an RSA modulus)"
	}
	return ""
}

// Record is one ingested modulus.
type Record struct {
	// Index is the record's 0-based position among accepted moduli —
	// the key index every finding and verdict refers to.
	Index int
	N     *mpnat.Nat
	// Line is the 1-based input line for hex corpora (0 for PEM input).
	Line int
	// PEM carries provenance (block type, exponent) when the input was
	// a PEM stream; nil for hex corpora.
	PEM *pemkeys.Source
}

// Skip describes one input record that yielded no modulus, preserving
// the per-record reason for the consumer to report.
type Skip struct {
	// Pos is the PEM block index (hex lines never skip: a bad line is a
	// hard error, because silently dropping corpus entries would shift
	// every later key index).
	Pos    int
	Label  string // PEM block type as it appeared in the stream
	Reason string
}

// sniffWindow bounds how far Source looks for PEM armour before
// committing to the hex line format. PEM streams whose first armour
// line starts beyond it are not detected; collected key sets put the
// armour within the first few lines.
const sniffWindow = 64 * 1024

// Source streams records from a reader, bufio.Scanner style:
//
//	src := corpus.NewSource(r)
//	for src.Next() {
//		rec := src.Record()
//		...
//	}
//	if err := src.Err(); err != nil { ... }
//
// The format is sniffed from the first bytes: input containing PEM
// armour goes through pemkeys (buffered in full, as PEM decoding
// requires); anything else is the line-oriented hex format, streamed
// line by line without loading the corpus into memory.
type Source struct {
	br      *bufio.Reader
	strict  bool
	sniffed bool

	// hex path
	sc     *bufio.Scanner
	lineNo int

	// pem path
	isPEM   bool
	pemRecs []Record
	pemPos  int

	rec   Record
	count int
	skips []Skip
	err   error
}

// NewSource streams r strictly: zero and even moduli are errors, so
// downstream layers can assume valid inputs (the Read contract).
func NewSource(r io.Reader) *Source { return newSource(r, true) }

// NewLenientSource streams r keeping zero and even moduli, leaving
// classification to the caller (the engines' per-index quarantine, the
// registry's malformed verdict — see Validate).
func NewLenientSource(r io.Reader) *Source { return newSource(r, false) }

func newSource(r io.Reader, strict bool) *Source {
	return &Source{br: bufio.NewReaderSize(r, sniffWindow), strict: strict}
}

// sniff commits to a format on first use.
func (s *Source) sniff() {
	s.sniffed = true
	window, err := s.br.Peek(sniffWindow)
	if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
		s.err = fmt.Errorf("corpus: %w", err)
		return
	}
	if !bytes.Contains(window, []byte("-----BEGIN ")) {
		s.sc = bufio.NewScanner(s.br)
		s.sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		return
	}
	s.isPEM = true
	data, err := io.ReadAll(s.br)
	if err != nil {
		s.err = fmt.Errorf("corpus: %w", err)
		return
	}
	bigs, srcs, skipped, err := pemkeys.ReadModuli(bytes.NewReader(data))
	if err != nil {
		s.err = fmt.Errorf("corpus: %w", err)
		return
	}
	for _, sk := range skipped {
		s.skips = append(s.skips, Skip{Pos: sk.Index, Label: sk.Type, Reason: sk.Reason})
	}
	s.pemRecs = make([]Record, 0, len(bigs))
	for i, n := range bigs {
		m := mpnat.FromBig(n)
		if s.strict {
			if reason := Validate(m); reason != "" {
				s.err = fmt.Errorf("corpus: PEM key %d: %s", i, reason)
				return
			}
		}
		src := srcs[i]
		s.pemRecs = append(s.pemRecs, Record{N: m, PEM: &src})
	}
}

// Next advances to the next record, returning false at the end of the
// input or on the first error (see Err).
func (s *Source) Next() bool {
	if s.err != nil {
		return false
	}
	if !s.sniffed {
		s.sniff()
		if s.err != nil {
			return false
		}
	}
	if s.isPEM {
		if s.pemPos >= len(s.pemRecs) {
			return false
		}
		s.rec = s.pemRecs[s.pemPos]
		s.rec.Index = s.count
		s.pemPos++
		s.count++
		return true
	}
	for s.sc.Scan() {
		s.lineNo++
		line := strings.TrimSpace(s.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n, err := mpnat.ParseHex(line)
		if err != nil {
			s.err = fmt.Errorf("corpus: line %d: %w", s.lineNo, err)
			return false
		}
		if s.strict {
			if reason := Validate(n); reason != "" {
				s.err = fmt.Errorf("corpus: line %d: %s", s.lineNo, reason)
				return false
			}
		}
		s.rec = Record{Index: s.count, N: n, Line: s.lineNo}
		s.count++
		return true
	}
	if err := s.sc.Err(); err != nil {
		s.err = fmt.Errorf("corpus: %w", err)
	}
	return false
}

// Record returns the record produced by the last successful Next.
func (s *Source) Record() Record { return s.rec }

// Err returns the first error encountered, or nil at clean end of input.
func (s *Source) Err() error { return s.err }

// Skipped returns the records that yielded no modulus so far, with
// per-record reasons. Grows as PEM input is sniffed; complete once Next
// has returned false.
func (s *Source) Skipped() []Skip { return s.skips }

// Count returns the number of records yielded so far.
func (s *Source) Count() int { return s.count }
