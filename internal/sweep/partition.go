package sweep

// Partition splits cells among owners by cache key: each cell is
// assigned to owner(cell.Key()), and cells sharing an owner keep their
// relative order. It is the scatter half of the cluster's scatter/gather
// sweep — the coordinator's consistent-hash ring supplies the owner
// function, so two cells with equal keys always land on the same peer
// and the peer's memo cache deduplicates them exactly as a single node
// would.
//
// The returned map's slices alias nothing: mutating them does not affect
// the input. Owners that receive no cells are absent from the map.
func Partition(cells []Cell, owner func(key string) string) map[string][]Cell {
	parts := make(map[string][]Cell)
	for _, c := range cells {
		o := owner(c.Key())
		parts[o] = append(parts[o], c)
	}
	return parts
}
