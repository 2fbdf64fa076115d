//! Wire types of the forecasting daemon's HTTP API.
//!
//! Every payload is the repo's own zero-dependency JSON ([`muse_obs::json`]).
//! Float fields survive the round trip bit-exactly: `f32 → f64` is an exact
//! widening, the renderer emits shortest-roundtrip decimals, and parsing
//! narrows back without changing the bits — the e2e suite leans on this to
//! assert the served forecast equals the in-process forward pass.

use std::borrow::Cow;
use std::fmt::Write;
use std::sync::Arc;

use muse_obs::Json;

/// Acknowledgement returned by `POST /ingest`.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestAck {
    /// Request ID assigned by the engine (correlates with trace events).
    pub request_id: u64,
    /// Absolute index assigned to the ingested frame.
    pub index: u64,
    /// Frames currently held in the window.
    pub frames: usize,
    /// Whether the window is deep enough to forecast.
    pub ready: bool,
}

impl IngestAck {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("request_id", Json::Num(self.request_id as f64)),
            ("index", Json::Num(self.index as f64)),
            ("frames", Json::Num(self.frames as f64)),
            ("ready", Json::Bool(self.ready)),
        ])
    }
}

/// Per-branch posterior-mean norms of the forward pass that produced a
/// forecast step — the serving-time view of the disentangled latents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatentNorms {
    /// ‖μ‖ of the closeness-exclusive posterior.
    pub closeness: f32,
    /// ‖μ‖ of the period-exclusive posterior.
    pub period: f32,
    /// ‖μ‖ of the trend-exclusive posterior.
    pub trend: f32,
    /// ‖μ‖ of the interactive posterior (pairwise variants: the norm of the
    /// concatenated pair posteriors).
    pub interactive: f32,
}

impl LatentNorms {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("closeness", Json::Num(self.closeness as f64)),
            ("period", Json::Num(self.period as f64)),
            ("trend", Json::Num(self.trend as f64)),
            ("interactive", Json::Num(self.interactive as f64)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let field = |name: &str| -> Result<f32, String> {
            json.get(name)
                .and_then(Json::as_f64)
                .map(|v| v as f32)
                .ok_or_else(|| format!("latent_norms missing numeric field '{name}'"))
        };
        Ok(LatentNorms {
            closeness: field("closeness")?,
            period: field("period")?,
            trend: field("trend")?,
            interactive: field("interactive")?,
        })
    }
}

/// Response of `GET /forecast?horizon=k`: the predicted frame `k` steps
/// ahead of the last ingested frame, plus the latents of the pass that
/// produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastResponse {
    /// Request ID assigned by the engine (correlates with trace events and
    /// later `forecast.scored` quality records).
    pub request_id: u64,
    /// Requested horizon (`1` = next interval).
    pub horizon: usize,
    /// Absolute index of the forecast target frame (`next_index + horizon - 1`).
    pub target_index: u64,
    /// Frame shape `[2, H, W]`.
    pub shape: [usize; 3],
    /// Row-major `[2, H, W]` predicted flows (scaled units, as ingested),
    /// shared with the rollout step that computed them.
    pub prediction: Arc<[f32]>,
    /// Latent norms of the rollout step that produced this frame.
    pub latent_norms: LatentNorms,
    /// `prediction` and `latent_norms` as the engine rendered them when it
    /// computed the rollout step; [`ForecastResponse::render`] splices
    /// this text in instead of formatting the floats again, so editing
    /// those two fields of a served response does not change its JSON.
    pub(crate) rendered: StepJson,
}

/// A rollout step's `prediction` and `latent_norms` fields
/// (`"prediction":[…],"latent_norms":{…}`), rendered once and shared by
/// every forecast the memo answers with that step. It is a cache of those
/// two fields, so it takes no part in equality.
#[derive(Debug, Clone, Default)]
pub(crate) struct StepJson(pub(crate) Option<Arc<str>>);

impl StepJson {
    pub(crate) fn render(prediction: &[f32], latent_norms: &LatentNorms) -> StepJson {
        StepJson(Some(Arc::from(step_fields(prediction, latent_norms))))
    }
}

impl PartialEq for StepJson {
    fn eq(&self, _: &StepJson) -> bool {
        true
    }
}

fn step_fields(prediction: &[f32], latent_norms: &LatentNorms) -> String {
    let prediction = Json::Arr(prediction.iter().map(|&v| Json::Num(v as f64)).collect());
    format!("\"prediction\":{},\"latent_norms\":{}", prediction.render(), latent_norms.to_json().render())
}

/// Room for the fields [`ForecastResponse::render`] writes around the
/// step's text: the keys, separators and five integers of up to 20 digits.
const HEAD_BYTES: usize = 200;

impl ForecastResponse {
    /// The response body, written in one pass into one `String` with the
    /// step's rendered text spliced in: a memo hit makes exactly this one
    /// allocation. The bytes are those of the [`Json`] object with the
    /// fields in declaration order.
    pub fn render(&self) -> String {
        let fields = match &self.rendered.0 {
            Some(text) => Cow::Borrowed(&**text),
            None => Cow::Owned(step_fields(&self.prediction, &self.latent_norms)),
        };
        let [c, h, w] = self.shape;
        let mut out = String::with_capacity(HEAD_BYTES + fields.len());
        let _ = write!(
            out,
            "{{\"request_id\":{},\"horizon\":{},\"target_index\":{},\"shape\":[{c},{h},{w}],{fields}}}",
            self.request_id, self.horizon, self.target_index
        );
        out
    }

    /// Parse a response object (the inverse of [`ForecastResponse::render`]).
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let num = |name: &str| -> Result<f64, String> {
            json.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("forecast missing numeric field '{name}'"))
        };
        let shape_arr = json
            .get("shape")
            .and_then(Json::as_arr)
            .ok_or_else(|| "forecast missing array field 'shape'".to_string())?;
        if shape_arr.len() != 3 {
            return Err(format!("shape has {} entries, expected 3", shape_arr.len()));
        }
        let mut shape = [0usize; 3];
        for (i, d) in shape_arr.iter().enumerate() {
            shape[i] = d.as_f64().ok_or_else(|| "non-numeric shape entry".to_string())? as usize;
        }
        let prediction = json
            .get("prediction")
            .and_then(Json::as_arr)
            .ok_or_else(|| "forecast missing array field 'prediction'".to_string())?
            .iter()
            .map(|v| v.as_f64().map(|f| f as f32).ok_or_else(|| "non-numeric prediction entry".to_string()))
            .collect::<Result<Arc<[f32]>, String>>()?;
        let latent_norms = LatentNorms::from_json(
            json.get("latent_norms").ok_or_else(|| "forecast missing 'latent_norms'".to_string())?,
        )?;
        Ok(ForecastResponse {
            request_id: num("request_id")? as u64,
            horizon: num("horizon")? as usize,
            target_index: num("target_index")? as u64,
            shape,
            prediction,
            latent_norms,
            rendered: StepJson::default(),
        })
    }
}

/// Parse the body of `POST /ingest`.
///
/// Two encodings are accepted:
/// - `application/json`: `{"frame": [f32, ...]}` with `2·H·W` scalars;
/// - anything else (canonically `application/octet-stream`): raw
///   little-endian `f32`s, `8·H·W` bytes.
pub fn parse_ingest_frame(content_type: &str, body: &[u8]) -> Result<Vec<f32>, String> {
    if content_type.starts_with("application/json") {
        let text = std::str::from_utf8(body).map_err(|_| "ingest body is not UTF-8".to_string())?;
        let json = muse_obs::json::parse(text).map_err(|e| format!("ingest body: {e}"))?;
        json.get("frame")
            .and_then(Json::as_arr)
            .ok_or_else(|| "ingest body missing array field 'frame'".to_string())?
            .iter()
            .map(|v| v.as_f64().map(|f| f as f32).ok_or_else(|| "non-numeric frame entry".to_string()))
            .collect()
    } else {
        if !body.len().is_multiple_of(4) {
            return Err(format!("raw frame body is {} bytes, not a multiple of 4", body.len()));
        }
        Ok(body.chunks_exact(4).map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forecast_round_trips_bit_exactly() {
        let resp = ForecastResponse {
            request_id: 99,
            horizon: 3,
            target_index: 674,
            shape: [2, 4, 5],
            prediction: Arc::from([0.1, -2.5e-8, f32::MIN_POSITIVE, 1.0 / 3.0]),
            latent_norms: LatentNorms { closeness: 1.25, period: 0.3, trend: 7.5e-3, interactive: 42.0 },
            rendered: StepJson::default(),
        };
        let text = resp.render();
        // The bytes of the JSON object with the fields in declaration order.
        let object = Json::obj([
            ("request_id", Json::Num(99.0)),
            ("horizon", Json::Num(3.0)),
            ("target_index", Json::Num(674.0)),
            ("shape", Json::Arr([2.0, 4.0, 5.0].map(Json::Num).to_vec())),
            ("prediction", Json::Arr(resp.prediction.iter().map(|&v| Json::Num(v as f64)).collect())),
            ("latent_norms", resp.latent_norms.to_json()),
        ]);
        assert_eq!(text, object.render());
        let back = ForecastResponse::from_json(&muse_obs::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, resp);
        for (a, b) in back.prediction.iter().zip(resp.prediction.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The text a memo step caches renders the same bytes.
        let cached = ForecastResponse {
            rendered: StepJson::render(&resp.prediction, &resp.latent_norms),
            ..resp.clone()
        };
        assert_eq!(cached.render(), text);
    }

    #[test]
    fn from_json_names_the_missing_field() {
        let err = ForecastResponse::from_json(&Json::obj([("horizon", Json::Num(1.0))])).unwrap_err();
        assert!(err.contains("shape"), "{err}");
    }

    #[test]
    fn ingest_parses_json_and_raw() {
        let json = parse_ingest_frame("application/json", br#"{"frame": [1.5, -2.0]}"#).unwrap();
        assert_eq!(json, vec![1.5, -2.0]);
        let mut raw = Vec::new();
        for v in [1.5f32, -2.0] {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(parse_ingest_frame("application/octet-stream", &raw).unwrap(), vec![1.5, -2.0]);
    }

    #[test]
    fn ingest_rejects_garbage() {
        assert!(parse_ingest_frame("application/json", b"{\"frame\": 3}").unwrap_err().contains("frame"));
        assert!(parse_ingest_frame("application/json", b"not json").unwrap_err().contains("ingest body"));
        assert!(parse_ingest_frame("application/octet-stream", &[0, 1, 2])
            .unwrap_err()
            .contains("multiple of 4"));
    }
}
