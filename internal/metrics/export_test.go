package metrics

// CheckExposition lets the external tests (package metrics_test, which
// may import internal/metricshttp) hold a scrape to the same grammar.
var CheckExposition = checkExposition
