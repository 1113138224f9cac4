package transport

// WithPoolSize sets the number of pooled connections per peer address
// (n <= 0 keeps DefaultPoolSize).
func WithPoolSize(n int) TCPOption {
	return func(t *TCP) {
		if n > 0 {
			t.poolSize = n
		}
	}
}
