package mp

import (
	"fmt"
	"sort"
)

// DimsCreate factors size into d dimensions as squarely as possible
// (largest factors first), mirroring MPI_Dims_create with all entries
// initially zero.
func DimsCreate(size, d int) []int {
	if size < 1 || d < 1 {
		panic(fmt.Sprintf("mp: DimsCreate(%d, %d)", size, d))
	}
	dims := make([]int, d)
	for i := range dims {
		dims[i] = 1
	}
	// Peel prime factors of size largest-first onto the currently
	// smallest dimension.
	var factors []int
	n := size
	for f := 2; f*f <= n; f++ {
		for n%f == 0 {
			factors = append(factors, f)
			n /= f
		}
	}
	if n > 1 {
		factors = append(factors, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(factors)))
	for _, f := range factors {
		k := 0
		for i := 1; i < d; i++ {
			if dims[i] < dims[k] {
				k = i
			}
		}
		dims[k] *= f
	}
	sort.Sort(sort.Reverse(sort.IntSlice(dims)))
	return dims
}
