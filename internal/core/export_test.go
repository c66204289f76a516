package core

// MessageCounterNames is every message counter book can count
// (sendNames), for tests outside the package.
func MessageCounterNames() []string {
	var names []string
	for _, kind := range sendNames {
		for _, n := range kind {
			if n != "" {
				names = append(names, n)
			}
		}
	}
	return names
}
