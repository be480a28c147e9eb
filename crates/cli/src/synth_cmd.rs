//! `sna synth` — run the HLS flow (schedule, bind, cost) for one
//! word-length configuration of a `.sna` datapath.

use sna_core::Session;
use sna_hls::SynthesisConstraints;
use sna_service::exec;

use crate::common::{json_doc, load, parse_format, unknown_flag, Args, CliError, Format};

const USAGE: &str = "sna synth <file>.sna [--bits N] [--clock NS] [--format human|json]";

/// Runs the subcommand.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let mut args = Args::new(argv);
    let mut format = Format::Human;
    let mut bits: u8 = 12;
    let mut clock: f64 = SynthesisConstraints::default().clock_ns;
    while let Some(flag) = args.next_flag() {
        match flag {
            "format" => format = parse_format(args.value("format")?)?,
            "bits" => bits = args.parse_value("bits")?,
            "clock" => clock = args.parse_value("clock")?,
            other => return Err(unknown_flag(other, USAGE)),
        }
    }
    let path = args.file(USAGE)?;
    let (lowered, _) = load(path)?;
    let session = Session::new(lowered.dfg, lowered.input_ranges)
        .map_err(|e| CliError::failed(e.to_string()))?;

    let imp = exec::synth(&session, bits, clock).map_err(CliError::Failed)?;
    let cost = &imp.cost;

    Ok(match format {
        Format::Human => format!(
            "{path}: {bits}-bit implementation @ {clock} ns clock\n\
             \n\
             area      {:>10.1} µm²  (FUs {:.1}, registers {:.1}, muxes {:.1})\n\
             power     {:>10.1} µW\n\
             latency   {:>10} cycles\n\
             energy    {:>10.2} pJ/sample\n\
             schedule  {:>10} scheduled op(s)\n",
            cost.area_um2,
            cost.fu_area_um2,
            cost.reg_area_um2,
            cost.mux_area_um2,
            cost.power_uw,
            cost.latency_cycles,
            cost.energy_per_sample_pj,
            imp.schedule.n_ops(),
        ),
        Format::Json => json_doc("synth", path, exec::synth_result(bits, clock, &imp)),
    })
}
