package analysis

// Suite returns the full imvet analyzer set in its canonical order.
func Suite() []*Analyzer {
	return []*Analyzer{
		Hotpath,
		Errclose,
		Locksafe,
	}
}
