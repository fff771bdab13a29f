package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// suiteJSON is the serialized form of a suite run.
type suiteJSON struct {
	Designs []designJSON          `json:"designs"`
	Average map[string][2]float64 `json:"average_norm_sites_tracks"`
}

type designJSON struct {
	Name     string                `json:"name"`
	Rows     map[string]metricJSON `json:"rows"`
	Selected string                `json:"selected_params,omitempty"`
	// GuardFallback marks a GDSII-Guard row that is the identity Cell
	// Shift run because the exploration kept no feasible point.
	GuardFallback bool `json:"guard_fallback,omitempty"`
}

type metricJSON struct {
	Security   float64 `json:"security"`
	ERSites    int     `json:"er_sites"`
	ERTracks   float64 `json:"er_tracks"`
	NormSites  float64 `json:"norm_sites"`
	NormTracks float64 `json:"norm_tracks"`
	TNSPS      float64 `json:"tns_ps"`
	WNSPS      float64 `json:"wns_ps"`
	PowerMW    float64 `json:"power_mw"`
	DRC        int     `json:"drc"`
}

// WriteJSON serializes the suite's per-design, per-defense metrics.
func (s *Suite) WriteJSON(w io.Writer) error {
	out := suiteJSON{Average: s.Averages()}
	for _, d := range s.Results {
		dj := designJSON{Name: d.Name, Rows: map[string]metricJSON{}}
		for row, m := range d.Metrics {
			dj.Rows[row] = metricJSON{
				Security:   m.Security,
				ERSites:    m.ERSites,
				ERTracks:   m.ERTracks,
				NormSites:  d.NormSites(row),
				NormTracks: d.NormTracks(row),
				TNSPS:      m.TNS,
				WNSPS:      m.WNS,
				PowerMW:    m.PowerMW,
				DRC:        m.DRC,
			}
		}
		if d.Selected != nil {
			dj.Selected = d.Selected.Params.Key()
		} else {
			dj.GuardFallback = true
		}
		out.Designs = append(out.Designs, dj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteCSV emits the Fig. 5 scatter of one design as CSV
// (security, minus_tns_ps, on_front).
func (pd *ParetoData) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("security,minus_tns_ps,on_front\n")
	onFront := map[[2]float64]bool{}
	for _, p := range pd.Front {
		onFront[p] = true
	}
	for _, p := range pd.Points {
		fmt.Fprintf(&b, "%.6f,%.3f,%v\n", p[0], p[1], onFront[p])
	}
	_, err := io.WriteString(w, b.String())
	return err
}
