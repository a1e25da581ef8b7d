// Package corpus reads and writes modulus corpora: the on-disk interchange
// format between the key generator (cmd/keygen) and the attack tool
// (cmd/rsafactor), standing in for the paper's "encryption keys collected
// from the Web".
//
// The format is line-oriented text:
//
//	# any number of comment lines
//	<modulus in lowercase hex>
//	<modulus in lowercase hex>
//	...
//
// Blank lines are ignored. The format carries only public information
// (moduli), like a real collected-key corpus would.
package corpus

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"bulkgcd/internal/mpnat"
)

// Write serializes moduli to w, one hex modulus per line, preceded by a
// descriptive comment header.
func Write(w io.Writer, moduli []*mpnat.Nat, comment string) error {
	bw := bufio.NewWriter(w)
	if comment != "" {
		for _, line := range strings.Split(comment, "\n") {
			if _, err := fmt.Fprintf(bw, "# %s\n", line); err != nil {
				return err
			}
		}
	}
	for i, n := range moduli {
		if n == nil {
			return fmt.Errorf("corpus: modulus %d is nil", i)
		}
		if _, err := fmt.Fprintln(bw, n.Hex()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a corpus from r. It rejects zero and even moduli early so
// the attack layer can assume valid inputs. It is a collecting wrapper
// over Source, so it also accepts PEM streams.
func Read(r io.Reader) ([]*mpnat.Nat, error) {
	src := NewSource(r)
	var out []*mpnat.Nat
	for src.Next() {
		out = append(out, src.Record().N)
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
