package ring

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring over a fixed peer set. Each peer owns
// VNodes points on a 64-bit circle; a key's replica set is the first R
// distinct peers clockwise from the key's hash. The mapping is a pure
// function of (peers, vnodes) — every router instance built from the
// same flags computes identical placements, which is what lets N
// stateless routers front one ring — and adding a peer moves only the
// keys that land on its virtual points (the classic 1/N reshuffle).
type Ring struct {
	peers    []string
	replicas int
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	peer int // index into peers
}

// hash64 is FNV-1a with a SplitMix64 avalanche finalizer. Raw FNV-1a
// keeps keys that differ only in their last few bytes numerically close
// (the trailing bytes see too few multiplies), so a fleet of sequential
// device IDs — or verdict keys sharing a "/tierN" suffix — collapses
// onto a handful of ring arcs and the "uniform" sharding becomes a
// two-peer hotspot. The finalizer spreads every bit.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	z := h.Sum64() + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRing builds a ring over peers with vnodes virtual points per peer
// and replica sets of size replicas (clamped to the peer count).
func NewRing(peers []string, vnodes, replicas int) (*Ring, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("ring: empty peer set")
	}
	seen := make(map[string]bool, len(peers))
	for _, p := range peers {
		if p == "" {
			return nil, fmt.Errorf("ring: empty peer name")
		}
		if seen[p] {
			return nil, fmt.Errorf("ring: duplicate peer %q", p)
		}
		seen[p] = true
	}
	if vnodes < 1 {
		vnodes = 64
	}
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(peers) {
		replicas = len(peers)
	}
	r := &Ring{
		peers:    append([]string(nil), peers...),
		replicas: replicas,
		points:   make([]ringPoint, 0, len(peers)*vnodes),
	}
	for i, p := range peers {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", p, v)), peer: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].peer < r.points[b].peer
	})
	return r, nil
}

// Peers returns the peer names, in construction order (the index space
// Replicas speaks).
func (r *Ring) Peers() []string { return r.peers }

// ReplicaCount returns the effective replica set size.
func (r *Ring) ReplicaCount() int { return r.replicas }

// Replicas returns the ordered replica set for key: the first R distinct
// peers clockwise from the key's point. The first entry is the primary;
// the rest follow in preference order.
func (r *Ring) Replicas(key string) []int {
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]int, 0, r.replicas)
	taken := make(map[int]bool, r.replicas)
	for i := 0; i < len(r.points) && len(out) < r.replicas; i++ {
		p := r.points[(start+i)%len(r.points)].peer
		if !taken[p] {
			taken[p] = true
			out = append(out, p)
		}
	}
	return out
}
