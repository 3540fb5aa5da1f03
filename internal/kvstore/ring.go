package kvstore

import (
	"sort"
	"strconv"
)

// Consistent-hash ring with virtual nodes. The old placement scheme
// (per-call FNV hasher allocation + modulo node count) had two costs: every
// lookup allocated, and any topology change remapped essentially the whole
// keyspace. The ring fixes both. Each shard contributes vnodesPerShard
// points on a 64-bit hash circle; a key is owned by the first point at or
// clockwise after its hash. Lookups are allocation-free (an inlined FNV-1a
// over the key bytes plus a binary search), and adding or removing a shard
// moves only the keys on the arcs it gains or loses — every other
// (key, shard) assignment is untouched, which is what lets a deployment
// grow without a stop-the-world rehash of the feedback keyspace.

// vnodes is the per-shard virtual-node count. 128 points per shard keeps
// the max/mean ownership ratio under ~1.25 for small clusters while the
// whole ring for a 20-shard deployment stays under 40 KB.
const vnodes = 128

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv64a hashes s with FNV-1a without allocating a hash.Hash.
func fnv64a(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// ringHash scatters fnv64a through the splitmix64 finalizer. Raw FNV-1a is
// badly clustered on the structured strings this ring sees (sequential
// "frame:0042" keys, "shard-2#17" vnode labels): nearby inputs land on
// nearby circle positions and whole shards end up owning almost no arc.
// The finalizer is bijective, so equal-key collision behaviour is
// unchanged — it only spreads positions uniformly around the circle.
func ringHash(s string) uint64 {
	z := fnv64a(s) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ringPoint is one virtual node: a position on the hash circle and the
// shard that owns the arc ending there.
type ringPoint struct {
	hash  uint64
	shard int32
}

// Ring places keys on shards by consistent hashing. A Ring is immutable
// after construction and safe for concurrent use.
type Ring struct {
	points []ringPoint
}

// NewRing builds a ring over `shards` shards with vnodes points each.
// Shard identity is positional: point positions depend only on (shard
// index, vnode index), so extending the shard list leaves every existing
// point — and therefore every surviving key assignment — exactly where it
// was.
func NewRing(shards int) *Ring {
	if shards < 1 {
		panic("kvstore: ring needs at least one shard")
	}
	r := &Ring{points: make([]ringPoint, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		label := "shard-" + strconv.Itoa(s) + "#"
		for v := 0; v < vnodes; v++ {
			h := ringHash(label + strconv.Itoa(v))
			r.points = append(r.points, ringPoint{hash: h, shard: int32(s)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by shard index so the ring is
		// a pure function of (shards, vnodes).
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Lookup returns the shard owning key. It performs no allocations: the key
// is hashed in place and the owning point found by binary search, so the
// hot feedback path pays ~O(len(key)) + O(log points) and nothing else.
func (r *Ring) Lookup(key string) int {
	h := ringHash(key)
	pts := r.points
	// First point with hash >= h, wrapping to 0 past the last point.
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(pts) {
		lo = 0
	}
	return int(pts[lo].shard)
}
