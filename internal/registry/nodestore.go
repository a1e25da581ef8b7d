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

// seedSpan is the smallest span the store keeps a node file for. A
// smaller node remultiplies from its leaves faster than its file is
// written (DESIGN.md 5i), so it lives only in the store's map. Batch
// checks are cut into chunks that end at multiples of seedSpan
// (chunkEnd). seedLevel is the level of a seedSpan-leaf node.
const (
	seedLevel = 8
	seedSpan  = 1 << seedLevel
)

// filed reports whether the store keeps a file for node k: whether k
// spans seedSpan leaves or more.
func filed(k nodeKey) bool { return k.level >= seedLevel }

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

// store resolves node values through three layers: a map of every node
// resolved so far, the node file directory (nodes of seedSpan leaves or
// more only), and a rebuild from the node's leaves. Writes of filed
// nodes go through to disk so a restart reloads them instead of
// remultiplying. The store is not safe for concurrent use: the registry
// touches it only while holding Registry.mu.
type store struct {
	dir     string
	nodes   map[nodeKey]*big.Int
	workers int

	// leafHex returns the identity line for leaf i ("-" when
	// tombstoned), leaf its value (1 when tombstoned); both are provided
	// by the registry so the store never sees corpus bookkeeping.
	leafHex func(i int) string
	leaf    func(i int) *big.Int

	loads, builds *obs.Counter // registry_node_loads_total, registry_node_builds_total
}

func newStore(dir string, workers int, reg *obs.Registry) *store {
	s := &store{
		dir:     dir,
		nodes:   map[nodeKey]*big.Int{},
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

// resident returns node k's value when the map already holds it, and
// never reads a file or rebuilds. Level 0 reads the corpus directly and
// is never kept in the map.
func (s *store) resident(k nodeKey) (*big.Int, bool) {
	if k.level == 0 {
		return s.leaf(k.index), true
	}
	v, ok := s.nodes[k]
	return v, ok
}

// value resolves a node: map, then a validated file, then a rebuild.
func (s *store) value(k nodeKey) *big.Int {
	if v, ok := s.resident(k); ok {
		return v
	}
	v := s.read(k)
	if v != nil {
		s.loads.Inc()
	} else {
		v = s.build(k)
	}
	s.nodes[k] = v
	return v
}

// put keeps a freshly multiplied node (a spine merge), write-through: a
// filed node's file lands first so a crash immediately after still
// reloads it.
func (s *store) put(k nodeKey, v *big.Int) {
	s.write(k, v)
	s.nodes[k] = v
}

// invalidate drops a node from the map and disk; the next value() call
// rebuilds it. Used when a leaf under it is tombstoned.
func (s *store) invalidate(k nodeKey) {
	delete(s.nodes, k)
	if filed(k) {
		os.Remove(s.path(k))
	}
}

// read loads and validates a node file, returning nil for a node the
// store keeps no file for and on any mismatch (missing, torn, foreign
// corpus, stale tombstone state) — the caller rebuilds, so a bad node
// file can cost time but never correctness. A file below seedSpan, left
// by an older store, is never read.
func (s *store) read(k nodeKey) *big.Int {
	if !filed(k) {
		return nil
	}
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

// write persists a filed node atomically (temp + rename), so a crash
// mid-write leaves either no file or a complete one; read rejects any
// torn survivor via the length and fingerprint checks anyway. Nodes
// below seedSpan are not written.
func (s *store) write(k nodeKey, v *big.Int) {
	if !filed(k) {
		return
	}
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

// build multiplies a node from its leaves with the parallel subprod
// builder and keeps every interior node of the built subtree in the map,
// and the filed ones in files, so the descents below it (and the next
// restart) find them. Nodes are compact (subprod.Mul).
func (s *store) build(k nodeKey) *big.Int {
	s.builds.Inc()
	lo, hi := k.span()
	leaves := make([]*big.Int, hi-lo)
	for i := range leaves {
		leaves[i] = s.leaf(lo + i)
	}
	t, err := subprod.Build(context.Background(), leaves, subprod.Options{Workers: s.workers})
	if err != nil {
		// Unreachable: a node spans at least two leaves and a background
		// context with no hooks cannot fail.
		panic("registry: node build: " + err.Error())
	}
	for l := 1; l < len(t.Levels); l++ {
		for j, v := range t.Levels[l] {
			kk := nodeKey{l, (lo >> l) + j}
			s.nodes[kk] = v
			s.write(kk, v)
		}
	}
	return t.Root()
}

// prune removes node files that are not filed nodes of the forest over
// n leaves (left over from before a compaction, from an older, larger
// corpus directory, or from a store that filed nodes below seedSpan)
// plus any stale temp files. Returns the number of files removed.
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
		if hi := (index + 1) << level; !filed(nodeKey{level, index}) || hi > n {
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
