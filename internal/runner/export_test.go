package runner

// HitRate reports hits / (hits + misses), or 0 before any lookup.
func (c *Cache[V]) HitRate() float64 {
	h, m := c.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
