//! Sequential oracle for All-to-All semantics.
//!
//! Every functional exchange in this workspace — the SHMEM All-to-All and
//! the fused operator — is tested against this plain, obviously-correct
//! reference function.

/// All-to-All: `inputs[src]` is partitioned into `n` equal chunks of
/// `per_pair` elements; chunk `dst` of PE `src` lands in output `dst` at
/// chunk position `src`.
///
/// # Panics
/// Panics if any input's length differs from `n × per_pair`.
pub fn alltoall<T: Copy>(inputs: &[Vec<T>], per_pair: usize) -> Vec<Vec<T>> {
    let n = inputs.len();
    for (pe, input) in inputs.iter().enumerate() {
        assert_eq!(
            input.len(),
            n * per_pair,
            "PE {pe} input length {} != n*per_pair {}",
            input.len(),
            n * per_pair
        );
    }
    (0..n)
        .map(|dst| {
            let mut out = Vec::with_capacity(n * per_pair);
            for input in inputs {
                out.extend_from_slice(&input[dst * per_pair..(dst + 1) * per_pair]);
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alltoall_two_pes() {
        let inputs = vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]];
        let out = alltoall(&inputs, 2);
        assert_eq!(out[0], vec![1, 2, 5, 6]);
        assert_eq!(out[1], vec![3, 4, 7, 8]);
    }

    #[test]
    fn alltoall_is_an_involution_for_symmetric_sizes() {
        // Applying all-to-all twice restores the original layout.
        let inputs: Vec<Vec<u32>> = (0..4)
            .map(|pe| (0..12).map(|i| pe * 100 + i).collect())
            .collect();
        let once = alltoall(&inputs, 3);
        let twice = alltoall(&once, 3);
        assert_eq!(twice, inputs);
    }

    #[test]
    fn alltoall_single_pe_is_identity() {
        let inputs = vec![vec![9, 8, 7]];
        assert_eq!(alltoall(&inputs, 3), inputs);
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn alltoall_validates_lengths() {
        alltoall(&[vec![1, 2, 3]], 2);
    }
}
