package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"
)

// TestFigureCSVGolden pins every figure's CSV bytes at a small fixed scale.
// The digests were recorded before the three per-family sweep loops were
// collapsed into one engine, so a pass here is the "byte-identical figures"
// claim checked in tier-1: any change to trial expansion order, seed
// derivation, per-trial scenario overrides, repeat folding or CSV rendering
// moves a digest. A deliberate change to simulated behaviour must re-record
// them (the failure message prints the new digest and the CSV).
func TestFigureCSVGolden(t *testing.T) {
	axes := map[*Axis][]float64{speedAxis: {5, 15}, churnAxis: {0, 2}, nodesAxis: {50, 100}}
	digests := map[string]string{
		"fig1":   "bfc6b7edd3a61f5582dda2d4c8575c38044893b25f56b422e1b082bb5146a6d3",
		"fig2":   "a142035d83fc42afde2b90e22af931fc812c65ba7bc1fd06f10ae1b79cc2afd0",
		"fig3":   "c53a113a9b84ceb0618a0f3efead5cc6796e5e88c613c7ae629b8c8c8e6bbc3d",
		"fig4":   "2a54f512870249535f22d593d9bd6f3888c89729b5b5a08494527f87314ac556",
		"fig5":   "f2e075c200d09e88b084f2560a1b0ba25fa8ea68348868dfbcf70e376c0e0aeb",
		"figDSR": "2b8c6480161edd93266b96b909371276b8539c28022ce4ef53087dcae43950c1",
		"fig7":   "bf17ab780b87384c83034fa0e65ba226b26a738e695b9676459d286efbf4b19a",
		"fig8":   "0e3d5f246e3eb3b489036b039d9b29ae24caa14ddc3aeac22891f00e7711de98",
		"fig9":   "2c3db2cc66d3788ce987952a30b05eb7a470ec2b9c3558c49dc5969b99a89c15",
		"fig10":  "2f043a947bafc39b36603b2479779255500ddb106225cec16fb258c429f27f3a",
	}
	rows := map[string]bool{}
	for _, spec := range Figures {
		rows[spec.ID] = true
		want, pinned := digests[spec.ID]
		if !pinned {
			t.Errorf("table row %s has no pinned digest", spec.ID)
			continue
		}
		t.Run(spec.ID, func(t *testing.T) {
			t.Parallel()
			fig, err := RunFigure(spec.ID, SweepConfig{
				Base: Scenario{Duration: 20 * time.Second}, Axis: axes[spec.Axis], Repeats: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if fig.ID != spec.ID {
				t.Fatalf("figure ID %q, want %q", fig.ID, spec.ID)
			}
			sum := sha256.Sum256([]byte(fig.CSV()))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s CSV digest %s, want %s\n%s", spec.ID, got, want, fig.CSV())
			}
		})
	}
	for id := range digests {
		if !rows[id] {
			t.Errorf("digest pinned for %s, which is not in the figure table", id)
		}
	}
}
