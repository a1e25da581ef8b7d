package corpus

import (
	"bytes"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"math/big"
	mrand "math/rand"
	"testing"
	"time"

	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/pemkeys"
	"bulkgcd/internal/rsakey"
)

// FuzzLenientSource drives the lenient reader over hex and PEM input. It
// must never panic; the records it yields carry indices 0..k-1 with
// Count() == k and a non-nil modulus; hex records come from strictly
// increasing lines; and wherever the strict reader accepts the input,
// the lenient one yields the same moduli.
func FuzzLenientSource(f *testing.F) {
	f.Add([]byte("# corpus\nff\n0\n\n10\n  2b  \n"))
	f.Add([]byte("0\n00\nfffe\n#\n"))
	k, err := rsakey.GenerateKey(mrand.New(mrand.NewSource(1)), 512)
	if err != nil {
		f.Fatal(err)
	}
	key, err := pemkeys.AssemblePrivateKey(k.N.ToBig(), k.P, k.Q, k.D, k.E)
	if err != nil {
		f.Fatal(err)
	}
	var pub bytes.Buffer
	if err := pemkeys.WritePublicKey(&pub, key.N, uint64(key.E)); err != nil {
		f.Fatal(err)
	}
	f.Add(pub.Bytes())
	f.Add(pub.Bytes()[:pub.Len()/2]) // armour cut mid-body
	f.Add([]byte("-----BEGIN PUBLIC KEY-----\nMIIB\n"))
	var even bytes.Buffer
	if err := pemkeys.WritePublicKey(&even, big.NewInt(0xC4), 65537); err != nil {
		f.Fatal(err)
	}
	f.Add(even.Bytes())
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "weak.example"},
		NotBefore:    time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2035, 5, 1, 0, 0, 0, 0, time.UTC),
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der}))

	f.Fuzz(func(t *testing.T, in []byte) {
		src := NewLenientSource(bytes.NewReader(in))
		var got []*mpnat.Nat
		line := 0
		for src.Next() {
			rec := src.Record()
			if rec.Index != len(got) || rec.N == nil {
				t.Fatalf("record %d: Index %d, N %v", len(got), rec.Index, rec.N)
			}
			if rec.PEM == nil {
				if rec.Line <= line {
					t.Fatalf("hex record %d on line %d, after line %d", rec.Index, rec.Line, line)
				}
				line = rec.Line
			}
			got = append(got, rec.N)
		}
		if src.Count() != len(got) {
			t.Fatalf("Count() = %d after %d records", src.Count(), len(got))
		}

		strict := NewSource(bytes.NewReader(in))
		var want []*mpnat.Nat
		for strict.Next() {
			want = append(want, strict.Record().N)
		}
		if strict.Err() != nil {
			return
		}
		if src.Err() != nil || len(got) != len(want) {
			t.Fatalf("strict reader accepts %d moduli, lenient yields %d (err %v)", len(want), len(got), src.Err())
		}
		for i := range want {
			if got[i].Cmp(want[i]) != 0 {
				t.Fatalf("modulus %d: lenient %s, strict %s", i, got[i].Hex(), want[i].Hex())
			}
		}
	})
}
