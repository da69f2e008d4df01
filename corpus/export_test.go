package corpus

// Crash simulates the process dying: the log's file descriptor is
// closed with no sync and no bookkeeping — exactly what the kernel does
// to a killed process's descriptors (which also releases the flock, so
// a test can reopen the path the way a restarted process would). The
// corpus object is unusable for logged mutations afterwards.
func (c *Corpus) Crash() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wal != nil {
		c.wal.f.Close()
	}
}
