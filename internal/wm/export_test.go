package wm

// Get returns a snapshot of the window, or false if not attached.
func (m *Manager) Get(id WindowID) (Window, bool) {
	if i := m.find(id); i >= 0 {
		return m.order[i], true
	}
	return Window{}, false
}
