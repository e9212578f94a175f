package fixtures

// Tests may read a metric by name: the chained-recording rule skips
// _test.go files.
func readByName(r registry) {
	r.Counter("documented.count").Inc()
}
