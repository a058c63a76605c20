package engine

// LiveSpillFiles reports how many logical spill files the session holds open.
func LiveSpillFiles(s *Session) int { return s.mem.Pool().Live() }
