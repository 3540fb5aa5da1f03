package stats

// Fenwick is a binary indexed tree of non-negative counts over the indices
// [0, Len()): Add changes a count and Kth finds the index holding the k-th
// unit in ascending order, each in O(log n) — a uniform draw over a
// changing set. The zero value has no indices; Grow adds them. Partial sums
// are 32-bit: 4 bytes per index, for totals below 2³¹.
type Fenwick struct {
	t []int32 // 1-based: t[i] sums the counts of indices [i-i&-i, i)
}

// Len returns the number of indices, zero or a power of two.
func (f *Fenwick) Len() int { return max(0, len(f.t)-1) }

// Grow doubles the index range until it holds n indices, keeping every
// count: the doubled tree's new top node covers the old tree whole, and
// every other new node covers only new, empty indices.
func (f *Fenwick) Grow(n int) {
	if f.t == nil {
		f.t = make([]int32, 2)
	}
	for l := f.Len(); l < n; l *= 2 {
		f.t = append(f.t, make([]int32, l)...)
		f.t[2*l] = f.t[l]
	}
}

// Add adds d to index i's count.
func (f *Fenwick) Add(i, d int) {
	for i++; i < len(f.t); i += i & -i {
		f.t[i] += int32(d)
	}
}

// Kth returns the smallest index whose prefix count exceeds k, for k in
// [0, total): one comparison per level, descending the tree's partial sums.
func (f *Fenwick) Kth(k int) int {
	i := 0
	for step := f.Len() / 2; step > 0; step /= 2 {
		if int(f.t[i+step]) <= k {
			i += step
			k -= int(f.t[i])
		}
	}
	return i
}
