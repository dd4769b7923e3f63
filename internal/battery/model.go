package battery

// Model estimates the apparent charge a load profile has drawn from a
// battery. Implementations differ in how they account for the rate-capacity
// effect (high currents waste capacity) and the recovery effect (rest
// periods restore some of it).
//
// The schedulers may evaluate a model from several goroutines at once
// (concurrent multi-start restarts, batch engine jobs), so implementations must be safe for concurrent
// ChargeLost calls; every model in this package is a stateless value.
type Model interface {
	// ChargeLost returns sigma(at): the apparent charge (mA·min) the
	// battery has lost by time `at` under profile p. For nonlinear
	// models this exceeds the delivered charge while the load is
	// active and relaxes back toward it during rest. Implementations
	// must treat times beyond the profile end as rest.
	ChargeLost(p Profile, at float64) float64
	// Name identifies the model in reports.
	Name() string
}

// UnavailableCharge returns sigma(at) minus the delivered charge: the part
// of the apparent loss that is temporarily bound in the battery's interior
// (zero for ideal models, non-negative for physical ones).
func UnavailableCharge(m Model, p Profile, at float64) float64 {
	return m.ChargeLost(p, at) - p.DeliveredCharge(at)
}
