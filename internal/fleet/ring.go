// Package fleet distributes campaign workloads across a fleet of
// prognosisd worker daemons. A weighted consistent-hash ring (Ring) maps
// campaign cell keys to workers with minimal movement under membership
// churn; a Coordinator expands a campaign spec into named cells, submits
// each cell to its ring owner through the ordinary pkg/client job API,
// tracks worker liveness with heartbeat leases, re-queues cells from dead
// or drained workers (safe, because cells are idempotent by key: the
// persistent query store and the campaign checkpoint both speak
// last-write-wins), and finally folds the per-worker query logs and
// learned models into one merged store and checkpoint. See docs/FLEET.md.
package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// DefaultVirtualNodes is the ring's default virtual-node count per unit
// of worker weight. More virtual nodes smooth the key distribution (and
// tighten the minimal-movement bound on churn) at the cost of a larger
// sorted point array; 160 is the classic Ketama-family compromise.
const DefaultVirtualNodes = 160

// Ring is a weighted consistent-hash ring: each member contributes
// weight × vnodes points (hashes of "name#i") on a 64-bit circle, and a
// key is owned by the member whose point is the first at or clockwise
// after the key's hash. Placement is a pure function of the member set —
// insertion order never matters, because every mutation rebuilds the
// point array from the sorted member list — and removing or adding one
// member only moves the keys whose owning arc that member's points
// cover, which is what lets a coordinator re-queue a dead worker's cells
// without reshuffling the survivors'. Methods are safe for concurrent
// use.
type Ring struct {
	mu      sync.RWMutex
	vnodes  int
	weights map[string]int
	points  []ringPoint // sorted by (hash, node)
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing returns an empty ring with the given virtual-node count per
// weight unit (<= 0 selects DefaultVirtualNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, weights: map[string]int{}}
}

// Add inserts (or re-weights) a member. Weight <= 0 counts as 1. Keys
// not owned by the member's new points keep their previous owners.
func (r *Ring) Add(node string, weight int) {
	if node == "" {
		return
	}
	if weight <= 0 {
		weight = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.weights[node] = weight
	r.rebuild()
}

// Remove deletes a member; its keys flow to the clockwise survivors.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.weights[node]; !ok {
		return
	}
	delete(r.weights, node)
	r.rebuild()
}

// rebuild regenerates the sorted point array from the member map. Called
// with the lock held. Rebuilding from scratch keeps placement a pure
// function of the member set: two rings holding the same members agree
// on every key regardless of the joins and leaves that got them there.
func (r *Ring) rebuild() {
	names := make([]string, 0, len(r.weights))
	for n := range r.weights {
		names = append(names, n)
	}
	sort.Strings(names)
	points := make([]ringPoint, 0, len(names)*r.vnodes)
	for _, name := range names {
		for i := 0; i < r.weights[name]*r.vnodes; i++ {
			points = append(points, ringPoint{hash: hash64(name + "#" + strconv.Itoa(i)), node: name})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		// Hash collisions between members are broken by name so the
		// winner does not depend on point-array construction order.
		return points[i].node < points[j].node
	})
	r.points = points
}

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if idx == len(r.points) {
		idx = 0 // wrap: the first point clockwise from the top of the circle
	}
	return r.points[idx].node
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.weights)
}

// Weight returns a member's weight (0 when absent).
func (r *Ring) Weight(node string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.weights[node]
}

// hash64 is FNV-1a over s: deterministic across processes and platforms,
// which the fleet depends on — a coordinator restart must re-derive the
// same placement from the same member set.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}
