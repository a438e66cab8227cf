package flight

// Registries reports how many registries r currently feeds.
func (r *Recorder) Registries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.regs)
}
