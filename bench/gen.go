package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"bulkgcd"
)

// genVersion names the generator's output format and algorithm. Bump it
// whenever the same (spec, seed) would produce different keys, so stale
// cache entries are never read.
const genVersion = "gen-v1"

// exponent is the RSA public exponent of every generated key; primes are
// chosen with p mod e != 1 so the private exponent always exists.
const exponent = 65537

// spec is the shape of one workload's corpus. Every count is fixed per
// workload, so two seeds differ only in the numbers, never in how much
// work the corpus carries.
type spec struct {
	Keys int `json:"keys"`
	Bits int `json:"bits"`
	// Clusters lists the sizes of the shared-prime clusters placed in
	// the first Head keys; DupPairs exact duplicate pairs go there too.
	Clusters []int `json:"clusters"`
	DupPairs int   `json:"dup_pairs"`
	// Head is the prefix holding the clusters and duplicates (all keys
	// for a scan; the set-up keys of the registry stream). Each of the
	// TailShared keys after it shares a prime with one earlier key, and
	// each of the TailDups keys repeats an earlier modulus.
	Head       int `json:"head"`
	TailShared int `json:"tail_shared"`
	TailDups   int `json:"tail_dups"`
}

// cluster is one group of keys sharing one prime. Members are corpus
// indices in increasing order; each member's other prime is unique.
type cluster struct {
	Prime   string `json:"prime"` // hex
	Members []int  `json:"members"`
}

// truth is the ground truth recorded with a corpus.
type truth struct {
	Clusters   []cluster `json:"clusters"`
	Duplicates [][2]int  `json:"duplicates"` // i < j, identical moduli
}

// corpusSet is a generated (or cached) corpus with its ground truth.
type corpusSet struct {
	Dir    string
	Moduli []*big.Int
	Truth  *truth
	GenS   float64 // seconds spent generating; 0 on a cache hit
}

func (c *corpusSet) corpusPath() string { return filepath.Join(c.Dir, "corpus.txt") }

// manifest pins a cache entry to its spec, seed and file hashes.
type manifest struct {
	Version string            `json:"version"`
	Spec    spec              `json:"spec"`
	Seed    int64             `json:"seed"`
	SHA256  map[string]string `json:"sha256"`
}

// loadOrGenerate returns the corpus for (sp, seed), reading it from the
// cache under root when a valid entry exists and generating (then
// caching) it otherwise. A cache entry whose files do not match its
// manifest's hashes is regenerated.
func loadOrGenerate(root string, sp spec, seed int64) (*corpusSet, error) {
	key, err := json.Marshal(struct {
		S spec
		N int64
	}{sp, seed})
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(key)
	dir := filepath.Join(root, genVersion, fmt.Sprintf("seed%d-%s", seed, hex.EncodeToString(sum[:6])))
	if cs, err := loadCached(dir, sp, seed); err == nil {
		return cs, nil
	}
	start := time.Now()
	moduli, tr, err := generate(sp, seed)
	if err != nil {
		return nil, err
	}
	genS := sinceS(start)
	if err := writeCache(dir, sp, seed, moduli, tr); err != nil {
		return nil, err
	}
	return &corpusSet{Dir: dir, Moduli: moduli, Truth: tr, GenS: genS}, nil
}

func loadCached(dir string, sp spec, seed int64) (*corpusSet, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	want, _ := json.Marshal(sp)
	got, _ := json.Marshal(m.Spec)
	if m.Version != genVersion || m.Seed != seed || !bytes.Equal(want, got) {
		return nil, errors.New("cache entry does not match its spec")
	}
	files := map[string][]byte{}
	for _, name := range []string{"corpus.txt", "truth.json"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if sha := sha256.Sum256(b); hex.EncodeToString(sha[:]) != m.SHA256[name] {
			return nil, fmt.Errorf("%s does not match its manifest hash", name)
		}
		files[name] = b
	}
	moduli, err := bulkgcd.ReadCorpus(bytes.NewReader(files["corpus.txt"]))
	if err != nil {
		return nil, err
	}
	var tr truth
	if err := json.Unmarshal(files["truth.json"], &tr); err != nil {
		return nil, err
	}
	if len(moduli) != sp.Keys {
		return nil, fmt.Errorf("cached corpus has %d keys, want %d", len(moduli), sp.Keys)
	}
	return &corpusSet{Dir: dir, Moduli: moduli, Truth: &tr}, nil
}

// writeCache writes the entry into a fresh sibling directory and renames
// it into place, so a killed run never leaves a half-written entry that
// looks valid.
func writeCache(dir string, sp spec, seed int64, moduli []*big.Int, tr *truth) error {
	var cbuf bytes.Buffer
	comment := fmt.Sprintf("bulkgcd benchmark corpus %s: %d keys x %d bits, seed %d", genVersion, sp.Keys, sp.Bits, seed)
	if err := bulkgcd.WriteCorpus(&cbuf, moduli, comment); err != nil {
		return err
	}
	tbuf, err := json.MarshalIndent(tr, "", " ")
	if err != nil {
		return err
	}
	files := map[string][]byte{"corpus.txt": cbuf.Bytes(), "truth.json": tbuf}
	m := manifest{Version: genVersion, Spec: sp, Seed: seed, SHA256: map[string]string{}}
	for name, b := range files {
		sum := sha256.Sum256(b)
		m.SHA256[name] = hex.EncodeToString(sum[:])
	}
	mbuf, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	files["manifest.json"] = mbuf

	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(dir), ".tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(tmp, name), b, 0o644); err != nil {
			return err
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.Rename(tmp, dir)
}

// role says how one corpus position is built: from two fresh primes
// (both fields -1), from a cluster prime and a fresh prime, or as a copy
// of an earlier key.
type role struct {
	cluster int // index into the cluster list, -1 for none
	copyOf  int // index of the duplicated key, -1 for none
}

// generate builds the corpus for (sp, seed). Positions and sub-seeds are
// drawn sequentially from one generator; the primes are then found in
// parallel, each from its own sub-seed, so the output does not depend on
// the number of goroutines.
func generate(sp spec, seed int64) ([]*big.Int, *truth, error) {
	if sp.Head > sp.Keys || sp.Bits < 64 || sp.Bits%16 != 0 {
		return nil, nil, fmt.Errorf("bad corpus spec %+v", sp)
	}
	rng := rand.New(rand.NewSource(seed))
	roles := make([]role, sp.Keys)
	for i := range roles {
		roles[i] = role{cluster: -1, copyOf: -1}
	}
	used := make([]bool, sp.Keys)
	// pick claims a random unused position in [lo, hi).
	pick := func(lo, hi int) (int, error) {
		for try := 0; hi > lo && try < 64*(hi-lo); try++ {
			if i := lo + rng.Intn(hi-lo); !used[i] {
				used[i] = true
				return i, nil
			}
		}
		return 0, fmt.Errorf("no free corpus position in [%d, %d)", lo, hi)
	}
	var members [][]int
	// Members of one cluster are spread across equal strata of the head,
	// so every cluster crosses tiles and the hybrid engine's descent work
	// varies little from seed to seed.
	for c, size := range sp.Clusters {
		var ms []int
		for k := 0; k < size; k++ {
			i, err := pick(k*sp.Head/size, (k+1)*sp.Head/size)
			if err != nil {
				return nil, nil, err
			}
			roles[i].cluster = c
			ms = append(ms, i)
		}
		members = append(members, ms)
	}
	var dups [][2]int
	// addDup places a copy in [lo, hi) of an original placed before it,
	// in [0, min(split, copy)).
	addDup := func(lo, hi, split int) error {
		j, err := pick(lo, hi)
		if err != nil {
			return err
		}
		i, err := pick(0, min(split, j))
		if err != nil {
			return err
		}
		roles[j].copyOf = i
		dups = append(dups, [2]int{i, j})
		return nil
	}
	for d := 0; d < sp.DupPairs; d++ {
		if err := addDup(sp.Head/2, sp.Head, sp.Head/2); err != nil {
			return nil, nil, err
		}
	}
	// Each tail key that shares a prime with one earlier key forms a
	// two-member cluster whose first member arrives before the second.
	for s := 0; s < sp.TailShared; s++ {
		j, err := pick(sp.Head, sp.Keys)
		if err != nil {
			return nil, nil, err
		}
		i, err := pick(0, j)
		if err != nil {
			return nil, nil, err
		}
		roles[i].cluster, roles[j].cluster = len(members), len(members)
		members = append(members, []int{i, j})
	}
	for d := 0; d < sp.TailDups; d++ {
		if err := addDup(sp.Head, sp.Keys, sp.Keys); err != nil {
			return nil, nil, err
		}
	}

	// One prime per cluster, one fresh prime per cluster member and two
	// per other key that is not a copy.
	need := len(members)
	for _, r := range roles {
		switch {
		case r.copyOf >= 0:
		case r.cluster >= 0:
			need++
		default:
			need += 2
		}
	}
	seeds := make([]int64, need)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	primes, err := genPrimes(seeds, sp.Bits/2)
	if err != nil {
		return nil, nil, err
	}
	take := func() *big.Int { p := primes[0]; primes = primes[1:]; return p }
	clusterPrime := make([]*big.Int, len(members))
	for c := range clusterPrime {
		clusterPrime[c] = take()
	}
	moduli := make([]*big.Int, sp.Keys)
	for i, r := range roles {
		switch {
		case r.copyOf >= 0:
		case r.cluster >= 0:
			moduli[i] = new(big.Int).Mul(clusterPrime[r.cluster], take())
		default:
			moduli[i] = new(big.Int).Mul(take(), take())
		}
	}
	for i, r := range roles {
		if r.copyOf >= 0 {
			moduli[i] = new(big.Int).Set(moduli[r.copyOf])
		}
	}
	tr := &truth{Duplicates: dups}
	for c, ms := range members {
		sorted := slices.Clone(ms)
		slices.Sort(sorted)
		tr.Clusters = append(tr.Clusters, cluster{Prime: clusterPrime[c].Text(16), Members: sorted})
	}
	return moduli, tr, nil
}

// genPrimes finds one prime per sub-seed on at most runtime.NumCPU
// goroutines and checks that all of them are distinct.
func genPrimes(seeds []int64, bits int) ([]*big.Int, error) {
	out := make([]*big.Int, len(seeds))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i] = findPrime(rand.New(rand.NewSource(seeds[i])), bits)
			}
		}()
	}
	for i := range seeds {
		work <- i
	}
	close(work)
	wg.Wait()
	seen := make(map[string]bool, len(out))
	for _, p := range out {
		h := p.Text(16)
		if seen[h] {
			return nil, errors.New("generator drew the same prime twice")
		}
		seen[h] = true
	}
	return out, nil
}

// smallPrimes are the odd primes below 2^14, the sieve's divisors.
var smallPrimes = func() []uint64 {
	const lim = 1 << 14
	composite := make([]bool, lim)
	var ps []uint64
	for i := 3; i < lim; i += 2 {
		if composite[i] {
			continue
		}
		ps = append(ps, uint64(i))
		for j := i * i; j < lim; j += 2 * i {
			composite[j] = true
		}
	}
	return ps
}()

// findPrime returns a prime of exactly bits bits with its top two bits
// set (so a product of two has exactly 2*bits bits) and p mod 65537 != 1.
// It sieves a window of odd candidates above a random start and tests
// the survivors in order. ProbablyPrime(0) is the Baillie-PSW test,
// which has no known counterexample; the attack itself re-tests every
// recovered factor with 20 Miller-Rabin rounds, and the truth check
// requires the recovered private exponent, so a composite would fail a
// run loudly rather than pass silently.
func findPrime(rng *rand.Rand, bits int) *big.Int {
	const window = 2048 // odd candidates per sieve pass
	buf := make([]byte, bits/8)
	rng.Read(buf)
	base := new(big.Int).SetBytes(buf)
	base.SetBit(base, bits-1, 1)
	base.SetBit(base, bits-2, 1)
	base.SetBit(base, 0, 1)
	composite := make([]bool, window)
	var mod, q, cand big.Int
	e := big.NewInt(exponent)
	for {
		clear(composite)
		for _, p := range smallPrimes {
			r := mod.Mod(base, q.SetUint64(p)).Uint64()
			// base + 2k == 0 (mod p)  <=>  k == -r * 2^-1 (mod p)
			for k := (p - r) % p * ((p + 1) / 2) % p; k < window; k += p {
				composite[k] = true
			}
		}
		for k := 0; k < window; k++ {
			if composite[k] {
				continue
			}
			cand.Add(base, big.NewInt(int64(2*k)))
			if cand.BitLen() != bits {
				break
			}
			if mod.Mod(&cand, e).Int64() == 1 || !cand.ProbablyPrime(0) {
				continue
			}
			return new(big.Int).Set(&cand)
		}
		base.Add(base, big.NewInt(2*window))
		if base.BitLen() != bits {
			base.Rsh(base, 1) // wrapped past 2^bits: restart lower
			base.SetBit(base, bits-1, 1)
			base.SetBit(base, bits-2, 1)
			base.SetBit(base, 0, 1)
		}
	}
}
