//! Sequential oracles for collective semantics.
//!
//! Every functional implementation in this workspace — the SHMEM
//! collectives and the fused operator — is tested against these plain,
//! obviously-correct reference functions.

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

/// AllReduce (sum): element-wise sum of equally sized inputs, replicated.
///
/// # Panics
/// Panics if input lengths differ.
pub fn allreduce_sum(inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let len = inputs.first().map_or(0, |v| v.len());
    let mut acc = vec![0.0f32; len];
    for input in inputs {
        assert_eq!(input.len(), len, "mismatched AllReduce input lengths");
        for (a, &v) in acc.iter_mut().zip(input) {
            *a += v;
        }
    }
    vec![acc; inputs.len()]
}

/// ReduceScatter (sum): the element-wise sum, partitioned so PE `i`
/// receives chunk `i` of `chunk` elements.
pub fn reduce_scatter_sum(inputs: &[Vec<f32>], chunk: usize) -> Vec<Vec<f32>> {
    let n = inputs.len();
    let summed = allreduce_sum(inputs).pop().unwrap_or_default();
    assert_eq!(summed.len(), n * chunk, "length must be n*chunk");
    (0..n)
        .map(|pe| summed[pe * chunk..(pe + 1) * chunk].to_vec())
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
    fn allreduce_sums_elementwise() {
        let inputs = vec![vec![1.0, 2.0], vec![10.0, 20.0], vec![100.0, 200.0]];
        let out = allreduce_sum(&inputs);
        for o in out {
            assert_eq!(o, vec![111.0, 222.0]);
        }
    }

    #[test]
    fn reduce_scatter_partitions_the_sum() {
        let inputs = vec![vec![1.0, 2.0, 3.0, 4.0], vec![4.0, 3.0, 2.0, 1.0]];
        let out = reduce_scatter_sum(&inputs, 2);
        assert_eq!(out[0], vec![5.0, 5.0]);
        assert_eq!(out[1], vec![5.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn alltoall_validates_lengths() {
        alltoall(&[vec![1, 2, 3]], 2);
    }
}
