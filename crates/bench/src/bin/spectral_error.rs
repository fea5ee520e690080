//! **§VII follow-up** — "More studies, such as spectral analysis of errors
//! in the electric field values, are needed to gain more insight into the
//! DL-based PIC methods."
//!
//! This binary performs that analysis: for each test sample it computes
//! the prediction-error vector `E_pred − E_true`, Fourier-transforms it,
//! and averages the per-mode amplitude over the test set — separately for
//! the MLP and the CNN, on Test Set I and Test Set II. The result shows
//! *where in k-space* each architecture concentrates its error (e.g.
//! whether the physically dominant k₁ mode is predicted better or worse
//! than the noise-dominated high-k tail).
//!
//! Run: `cargo run -p dlpic-bench --release --bin spectral_error [--scale ...]`

use dlpic_analytics::dft::mode_amplitudes;
use dlpic_analytics::plot::{line_plot, PlotOptions};
use dlpic_analytics::series::{write_csv, Table, TimeSeries};
use dlpic_bench::{out_dir, prepare_data, train_arch, Cli, DataBundle};
use dlpic_core::builder::InputKind;
use dlpic_core::bundle::ModelBundle;
use dlpic_core::phase_space::BinningShape;
use dlpic_dataset::sample::PhaseDataset;
use dlpic_nn::loss::Mse;
use dlpic_nn::network::PredictWorkspace;
use dlpic_nn::serialize::params_from_bytes;
use dlpic_nn::tensor::Tensor;

/// Mean per-mode amplitude of the prediction error over a dataset, one
/// sample at a time through the trained network (pure inference: the CNN
/// has no frozen form, so no field solver runs here).
fn error_spectrum(bundle: &ModelBundle, data: &PhaseDataset) -> Vec<f64> {
    // Any seed: the restore overwrites every parameter.
    let mut net = bundle.arch.build(0);
    params_from_bytes(&mut net, &bundle.params).expect("bundle -> network");
    let spec = data.spec;
    let shape = match bundle.arch.input_kind() {
        InputKind::Flat => vec![1, spec.cells()],
        InputKind::Image => vec![1, 1, spec.nv, spec.nx],
    };
    let mut workspace = PredictWorkspace::new();
    let n_modes = data.e_cells / 2 + 1;
    let mut acc = vec![0.0f64; n_modes];
    for i in 0..data.len() {
        let mut hist = data.input_row(i).to_vec();
        bundle.norm.apply(&mut hist);
        let pred = net.predict_into(&Tensor::new(hist, &shape), &mut workspace);
        let err: Vec<f64> = pred
            .data()
            .iter()
            .zip(data.target_row(i))
            .map(|(&p, &t)| (p - t) as f64)
            .collect();
        for (a, m) in acc.iter_mut().zip(mode_amplitudes(&err)) {
            *a += m;
        }
    }
    for a in &mut acc {
        *a /= data.len() as f64;
    }
    acc
}

fn spectrum_series(name: &str, spectrum: &[f64]) -> TimeSeries {
    TimeSeries::from_data(
        name,
        (0..spectrum.len()).map(|m| m as f64).collect(),
        spectrum.to_vec(),
    )
}

fn main() {
    let cli = Cli::parse();
    println!(
        "== spectral analysis of E-field errors [{} scale] ==\n",
        cli.scale.name()
    );

    eprintln!("generating datasets...");
    let data: DataBundle = prepare_data(cli.scale, BinningShape::Ngp, false);
    eprintln!("training MLP...");
    let mlp = train_arch(
        &cli.scale.mlp_arch(),
        &data,
        &Mse,
        cli.scale.mlp_epochs(),
        cli.scale.learning_rate(),
        0xD1,
        0,
    );
    eprintln!("training CNN...");
    let cnn = train_arch(
        &cli.scale.cnn_arch(),
        &data,
        &Mse,
        cli.scale.cnn_epochs(),
        cli.scale.learning_rate(),
        0xC1,
        0,
    );

    let mlp_i = error_spectrum(&mlp.bundle, &data.test1);
    let mlp_ii = error_spectrum(&mlp.bundle, &data.test2);
    let cnn_i = error_spectrum(&cnn.bundle, &data.test1);
    let cnn_ii = error_spectrum(&cnn.bundle, &data.test2);

    // Table of the first 8 modes + the high-k tail mean.
    let mut table = Table::new(&[
        "mode k",
        "MLP set I",
        "MLP set II",
        "CNN set I",
        "CNN set II",
    ]);
    let f = |v: f64| format!("{v:.6}");
    for m in 0..8.min(mlp_i.len()) {
        table.row(&[
            m.to_string(),
            f(mlp_i[m]),
            f(mlp_ii[m]),
            f(cnn_i[m]),
            f(cnn_ii[m]),
        ]);
    }
    let tail = |s: &[f64]| s[8.min(s.len())..].iter().sum::<f64>() / (s.len() - 8).max(1) as f64;
    table.row(&[
        "8..Nyq mean".into(),
        f(tail(&mlp_i)),
        f(tail(&mlp_ii)),
        f(tail(&cnn_i)),
        f(tail(&cnn_ii)),
    ]);
    println!("{}", table.render());

    let s_mlp_i = spectrum_series("mlp-I", &mlp_i);
    let s_mlp_ii = spectrum_series("mlp-II", &mlp_ii);
    let s_cnn_i = spectrum_series("cnn-I", &cnn_i);
    let s_cnn_ii = spectrum_series("cnn-II", &cnn_ii);
    println!(
        "{}",
        line_plot(
            &[
                ('m', &s_mlp_i),
                ('M', &s_mlp_ii),
                ('c', &s_cnn_i),
                ('C', &s_cnn_ii)
            ],
            &PlotOptions::titled("mean error amplitude per field mode (x-axis: mode number)")
                .log_y(true),
        )
    );

    let csv = out_dir().join(format!("spectral-error-{}.csv", cli.scale.name()));
    write_csv(&csv, &[&s_mlp_i, &s_mlp_ii, &s_cnn_i, &s_cnn_ii]).expect("write CSV");
    println!("wrote {}", csv.display());

    // Where does each architecture put its error?
    let dominant = |s: &[f64]| {
        s.iter()
            .enumerate()
            .skip(1)
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(m, _)| m)
    };
    println!(
        "\ndominant error mode: MLP set II -> k = {:?}, CNN set II -> k = {:?}",
        dominant(&mlp_ii),
        dominant(&cnn_ii)
    );
}
