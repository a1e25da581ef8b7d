package registry

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"sort"

	"bulkgcd/internal/obs"
	"bulkgcd/internal/subprod"
)

// nodeKey addresses one product-tree node in global leaf-aligned
// coordinates: node (level, index) is the product of the moduli at
// leaves [index<<level, (index+1)<<level). Level 0 is the corpus itself.
type nodeKey struct {
	level, index int
}

func (k nodeKey) span() (lo, hi int) {
	return k.index << k.level, (k.index + 1) << k.level
}

// nodeFileVersion is the node file format version ("BGRN" = bulk gcd
// registry node). bgrn2 bodies are the node's big-endian bytes; bgrn1
// files (packed 32-bit words) fail the version check and are rebuilt.
const nodeFileVersion = "bgrn2"

// seedSpan is the smallest span the store builds through the parallel
// subprod builder instead of serial child recursion; a cold open over a
// large corpus seeds whole subtrees at once and harvests every interior
// node into the file store.
const seedSpan = 256

// nodeHeader is the JSON first line of a node file. FP binds the node to
// the exact corpus slice it multiplies: mismatch (a different corpus, a
// tombstoned leaf) makes the store rebuild instead of trusting the file.
type nodeHeader struct {
	V     string `json:"v"`
	Level int    `json:"level"`
	Index int    `json:"index"`
	FP    string `json:"fp"`
	Bytes int    `json:"bytes"`
}

// store resolves node values through three layers: the byte-budgeted
// in-RAM LRU cache, the node file directory, and a rebuild from
// children (recursive for small spans, the parallel subprod builder for
// large ones). Writes go through to disk so a restart reloads instead
// of remultiplying. value() is safe for concurrent use — the cache is
// thread-safe, reads are pure, builds use call-local scratch, and node
// file writes are atomic temp+rename — which is what lets the registry
// descend the spine roots in parallel. Mutating entry points (put,
// invalidate, prune) stay serialized under the registry lock.
type store struct {
	dir     string
	cache   *subprod.KeyedCache[nodeKey]
	workers int

	// leafHex returns the identity line for leaf i ("-" when
	// tombstoned), leaf its value (1 when tombstoned); both are provided
	// by the registry so the store never sees corpus bookkeeping.
	leafHex func(i int) string
	leaf    func(i int) *big.Int

	loads, builds *obs.Counter // registry_node_loads_total, registry_node_builds_total
}

func newStore(dir string, budget int64, workers int, reg *obs.Registry) *store {
	s := &store{
		dir:     dir,
		cache:   subprod.NewKeyedCache[nodeKey](budget),
		workers: workers,
	}
	if reg != nil {
		s.loads = reg.Counter("registry_node_loads_total")
		s.builds = reg.Counter("registry_node_builds_total")
	}
	return s
}

// fingerprint binds a node to the corpus slice it covers: the version,
// the node coordinates, and each leaf's identity line (the corpus hex,
// or "-" for a tombstoned leaf). Hashing the span is linear in the leaf
// count but byte-cheap compared to the multiplications it guards.
func (s *store) fingerprint(k nodeKey) string {
	lo, hi := k.span()
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%d\n", nodeFileVersion, k.level, k.index)
	for i := lo; i < hi; i++ {
		h.Write([]byte(s.leafHex(i)))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (s *store) path(k nodeKey) string {
	return filepath.Join(s.dir, fmt.Sprintf("%02d-%08x.node", k.level, k.index))
}

// value resolves a node: cache, then disk, then rebuild. Level 0 reads
// the corpus directly and is never cached or spilled.
func (s *store) value(k nodeKey) *big.Int {
	if k.level == 0 {
		return s.leaf(k.index)
	}
	return s.cache.Get(k, func() *big.Int {
		if v := s.read(k); v != nil {
			s.loads.Inc()
			return v
		}
		return s.build(k)
	})
}

// put inserts a freshly multiplied node (a spine merge) write-through:
// the file lands before the cache so a crash immediately after still
// reloads it. Returns the retained value (the cache may already hold
// an equal node built concurrently — impossible under the registry
// lock, but Put's contract covers it).
func (s *store) put(k nodeKey, v *big.Int) *big.Int {
	s.write(k, v)
	return s.cache.Put(k, v)
}

// invalidate drops a node from cache and disk; the next value() call
// rebuilds it from children. Used when a leaf under it is tombstoned.
func (s *store) invalidate(k nodeKey) {
	s.cache.Drop(k)
	os.Remove(s.path(k))
}

// read loads and validates a node file, returning nil on any mismatch
// (missing, torn, foreign corpus, stale tombstone state) — the caller
// rebuilds, so a bad node file can cost time but never correctness.
func (s *store) read(k nodeKey) *big.Int {
	data, err := os.ReadFile(s.path(k))
	if err != nil {
		return nil
	}
	nl := -1
	for i, b := range data {
		if b == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 {
		return nil
	}
	var hdr nodeHeader
	if err := json.Unmarshal(data[:nl], &hdr); err != nil {
		return nil
	}
	if hdr.V != nodeFileVersion || hdr.Level != k.level || hdr.Index != k.index {
		return nil
	}
	body := data[nl+1:]
	if len(body) != hdr.Bytes {
		return nil
	}
	if hdr.FP != s.fingerprint(k) {
		return nil
	}
	return new(big.Int).SetBytes(body)
}

// write persists a node file atomically (temp + rename), so a crash
// mid-write leaves either no file or a complete one; read rejects any
// torn survivor via the length and fingerprint checks anyway.
func (s *store) write(k nodeKey, v *big.Int) {
	size := (v.BitLen() + 7) / 8
	hdr := nodeHeader{V: nodeFileVersion, Level: k.level, Index: k.index, FP: s.fingerprint(k), Bytes: size}
	line, err := json.Marshal(hdr)
	if err != nil {
		return
	}
	buf := make([]byte, len(line)+1+size)
	copy(buf, line)
	buf[len(line)] = '\n'
	v.FillBytes(buf[len(line)+1:])
	tmp := s.path(k) + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, s.path(k)); err != nil {
		os.Remove(tmp)
	}
}

// build computes a node from its children. Small spans recurse serially;
// spans of seedSpan and larger go through the parallel subprod builder,
// and every interior node of the built subtree is harvested into the
// file store so neighbouring rebuilds (and the next restart) get them
// for free. Both paths keep compact nodes (subprod.Mul).
func (s *store) build(k nodeKey) *big.Int {
	s.builds.Inc()
	lo, hi := k.span()
	if hi-lo >= seedSpan {
		leaves := make([]*big.Int, hi-lo)
		for i := range leaves {
			leaves[i] = s.leaf(lo + i)
		}
		t, err := subprod.Build(context.Background(), leaves, subprod.Options{Workers: s.workers})
		if err == nil {
			for l := 1; l < len(t.Levels); l++ {
				for j, v := range t.Levels[l] {
					kk := nodeKey{l, (lo >> l) + j}
					s.write(kk, v)
					if l < len(t.Levels)-1 {
						s.cache.Put(kk, v)
					}
				}
			}
			return t.Root()
		}
		// The builder only fails on context cancellation; fall through to
		// the serial path, which cannot fail.
	}
	left := s.value(nodeKey{k.level - 1, 2 * k.index})
	right := s.value(nodeKey{k.level - 1, 2*k.index + 1})
	// Call-local scratch: concurrent root descents may rebuild disjoint
	// nodes at once, so the serial path must not share multiplier state.
	v := subprod.Mul(new(big.Int), left, right)
	s.write(k, v)
	return v
}

// prune removes node files that are not nodes of the forest over n
// leaves (left over from before a compaction or from an older, larger
// corpus directory) plus any stale temp files. Returns the number of
// files removed.
func (s *store) prune(n int) (int, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, de := range des {
		name := de.Name()
		var level, index int
		if _, err := fmt.Sscanf(name, "%02d-%08x.node", &level, &index); err != nil || !isNodeName(name) {
			// Not a node file; drop only our own temp leftovers.
			if filepath.Ext(name) == ".tmp" {
				os.Remove(filepath.Join(s.dir, name))
				removed++
			}
			continue
		}
		hi := (index + 1) << level
		if level < 1 || hi > n {
			os.Remove(filepath.Join(s.dir, name))
			removed++
		}
	}
	return removed, nil
}

// isNodeName reports whether name matches the node file pattern exactly
// (Sscanf alone accepts trailing garbage).
func isNodeName(name string) bool {
	var level, index int
	var rest string
	n, _ := fmt.Sscanf(name, "%02d-%08x.node%s", &level, &index, &rest)
	return n == 2 && fmt.Sprintf("%02d-%08x.node", level, index) == name
}

// stats returns the cache's counters for the registry's Stats surface.
func (s *store) stats() subprod.CacheStats { return s.cache.Stats() }

// rootsOf decomposes a forest over n leaves into its spine roots, one
// perfect subtree per set bit of n, largest first. Each root's span is
// aligned because every higher root's span is a multiple of its size.
func rootsOf(n int) []nodeKey { return appendRootsOf(nil, n) }

// appendRootsOf is rootsOf into a caller-owned buffer; the submit path
// calls it once per key, so reusing the slice keeps the hot path
// allocation-flat.
func appendRootsOf(out []nodeKey, n int) []nodeKey {
	offset := 0
	for k := 62; k >= 0; k-- {
		if n&(1<<k) != 0 {
			out = append(out, nodeKey{k, offset >> k})
			offset += 1 << k
		}
	}
	return out
}

// ancestorsOf lists the existing forest nodes (level ≥ 1) whose span
// contains leaf i, in a forest over n leaves — the nodes a tombstone at
// i invalidates.
func ancestorsOf(i, n int) []nodeKey {
	var out []nodeKey
	for _, root := range rootsOf(n) {
		lo, hi := root.span()
		if i < lo || i >= hi {
			continue
		}
		for l := root.level; l >= 1; l-- {
			out = append(out, nodeKey{l, i >> l})
		}
		break
	}
	sort.Slice(out, func(a, b int) bool { return out[a].level > out[b].level })
	return out
}
