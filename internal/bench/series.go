package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Series is the data behind one figure: a labelled x-axis and one y-vector
// per named curve, in milliseconds (or percent for the repositioning
// figures).
type Series struct {
	Title   string
	XAxis   string
	YAxis   string
	XLabels []string
	// Order lists curve names in presentation order.
	Order []string
	// Y maps curve name to one value per x position.
	Y map[string][]float64
	// Notes carries figure-specific commentary (paper formulas, caveats).
	Notes string
}

// NewSeries allocates a series with the given axes and curve order.
func NewSeries(title, xAxis, yAxis string, order ...string) *Series {
	return &Series{Title: title, XAxis: xAxis, YAxis: yAxis, Order: order, Y: make(map[string][]float64)}
}

// AddX appends an x position and one value per ordered curve. vals must
// follow Order.
func (s *Series) AddX(label string, vals ...float64) {
	if len(vals) != len(s.Order) {
		panic(fmt.Sprintf("bench: %d values for %d curves", len(vals), len(s.Order)))
	}
	s.XLabels = append(s.XLabels, label)
	for i, name := range s.Order {
		s.Y[name] = append(s.Y[name], vals[i])
	}
}

// Get returns the value of a curve at an x index.
func (s *Series) Get(curve string, i int) float64 {
	ys, ok := s.Y[curve]
	if !ok {
		panic(fmt.Sprintf("bench: unknown curve %q (have %v)", curve, s.Order))
	}
	return ys[i]
}

// Format renders the series as an aligned text table, the form cmd/stpbench
// prints and EXPERIMENTS.md records.
func (s *Series) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.Title)
	fmt.Fprintf(&b, "%-14s", s.XAxis)
	for _, name := range s.Order {
		fmt.Fprintf(&b, "%16s", name)
	}
	fmt.Fprintf(&b, "   [%s]\n", s.YAxis)
	for i, x := range s.XLabels {
		fmt.Fprintf(&b, "%-14s", x)
		for _, name := range s.Order {
			fmt.Fprintf(&b, "%16.3f", s.Y[name][i])
		}
		b.WriteByte('\n')
	}
	if s.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", s.Notes)
	}
	return b.String()
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	// ID is the figure identifier ("fig3", "fig13a", "ablation-part").
	ID string
	// Title summarizes the workload.
	Title string
	// Paper states what the original figure showed, for EXPERIMENTS.md.
	Paper string
	// WallClock marks an experiment that measures real time on the
	// real-byte engines. Its values vary from run to run, so a report
	// that promises reproducible numbers (cmd/stpreport's default
	// selection, REPORT.md) leaves it out.
	WallClock bool
	// Run produces the series.
	Run func() (*Series, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Register adds an experiment from outside the package. The figure CLIs
// discover experiments only through the registry, so a package whose
// runner cannot live here without an import cycle (internal/daemon's
// figDaemon drives the facade's Session API) registers at init instead;
// its experiment then appears exactly when that package is linked in.
func Register(e Experiment) { register(e) }

// Experiments returns every defined experiment, sorted by ID.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}
